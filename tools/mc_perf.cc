/**
 * @file
 * mc_perf: the perf-regression harness of the fast functional-GEMM
 * backend (docs/PERF.md).
 *
 * Three generations of the same arithmetic are timed against each
 * other per datatype combo, matrix size, and thread count:
 *
 *  - the pre-blocking scalar triple loop ("legacy", scalarGemm below),
 *  - the blocked/packed/threaded backend pinned to its scalar
 *    micro-kernel tier (MC_SIMD=scalar — the PR 4 fast path), and
 *  - every explicit-SIMD tier the CPU supports (SSE2/AVX2/AVX-512 on
 *    x86-64, NEON on aarch64).
 *
 * Every timed result is byte-compared against the scalar-tier result
 * (and against the legacy reference when the size permits): a run that
 * measures a numerically different kernel exits Internal rather than
 * reporting a meaningless speedup. Results go to stdout, and with
 * --out to an atomically published JSON report (BENCH_pr5.json in the
 * repo records the PR-acceptance run) including the detected CPU
 * features, which tiers were unavailable, and per-tier geometric-mean
 * speedups over the scalar tier for N >= 1024.
 *
 * The --check mode turns the tool into the `perf`/`simd` ctest smoke:
 * it fails unless every SIMD tier clears --min-speedup against the
 * scalar tier (and the scalar tier clears it against legacy).
 *
 * --pack-bench switches the tool into the packed-operand reuse sweep
 * (docs/PERF.md, "Operand packing & reuse"): per shape (--shape m,n,k
 * triples and/or the --decode preset) it times the fast path cold
 * (pack cache disabled, per-call staging through the scratch arena)
 * against warm (cache primed, staged panels served by content
 * fingerprint), memcmp-checks the two outputs identical, and reports
 * per-row cold/warm seconds plus decode and transformer-chain
 * geomeans (BENCH_pr10.json records the PR-acceptance run).
 *
 * --tune switches the tool into the autotuner (docs/PERF.md,
 * "Autotuning"): per (combo, SIMD tier, size bucket) it coordinate-
 * descends over the backend's block/thread candidates — measurements
 * classified by the top-down profiling layer (src/prof/topdown.hh) so
 * the search prunes hopeless candidates — and persists the winners as
 * a CRC32-guarded artifact at --tune-out. Every candidate's output is
 * byte-compared against the scalar-tier anchor before its timing
 * counts. --tune-apply=<artifact> activates a persisted artifact for
 * the normal timing sweep, which then times default blocks vs tuned
 * blocks per row and reports tuned-vs-default geomeans.
 */

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "blas/functional.hh"
#include "blas/gemm_types.hh"
#include "blas/int8_gemm.hh"
#include "blas/pack_cache.hh"
#include "blas/simd_dispatch.hh"
#include "blas/tune.hh"
#include "prof/topdown.hh"
#include "common/atomic_file.hh"
#include "common/cli.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/status.hh"
#include "exec/thread_pool.hh"

namespace {

using namespace mc;

/** One (combo, size, tier, thread-count) timing. */
struct TierTiming
{
    blas::SimdTier tier = blas::SimdTier::Scalar;
    int threads = 0;
    double seconds = 0.0;
    /** legacy_scalar_seconds / seconds (0 = baseline skipped). */
    double speedupLegacy = 0.0;
    /** scalar_tier_seconds (same thread count) / seconds. */
    double speedupVsScalarTier = 0.0;

    // Tuned-vs-default comparison (--tune-apply / MC_TUNE=<artifact>).
    /** The blocks the auto fields resolved to (artifact or defaults). */
    blas::TunedConfig resolvedConfig;
    /** True when the artifact supplied non-default blocks. */
    bool tunedApplied = false;
    /** Seconds with the tuned blocks (0 when tuning is inactive). */
    double tunedSeconds = 0.0;
    /** default-blocks seconds / tuned seconds. */
    double tunedSpeedup = 0.0;
};

struct CaseResult
{
    blas::GemmCombo combo = blas::GemmCombo::Sgemm;
    std::size_t n = 0;
    bool roundEachStep = false;
    double scalarSeconds = 0.0; ///< legacy loop; 0 when skipped
    std::vector<TierTiming> fast;
};

constexpr double kAlpha = 1.25, kBeta = 0.5;

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Best (lowest) wall-clock seconds of @p reps calls of @p fn. */
template <typename Fn>
double
bestOf(int reps, const Fn &fn)
{
    double best = std::numeric_limits<double>::max();
    for (int r = 0; r < reps; ++r) {
        const double t0 = nowSeconds();
        fn();
        best = std::min(best, nowSeconds() - t0);
    }
    return best;
}

/** Byte comparison of two result matrices (Half included: the storage
 *  types are trivially copyable bit patterns). */
template <typename T>
bool
bytesEqual(const Matrix<T> &x, const Matrix<T> &y)
{
    return std::memcmp(x.data(), y.data(),
                       x.rows() * x.cols() * sizeof(T)) == 0;
}

// ---- Per-kind combo ops ---------------------------------------------------
//
// blas::visitCombo maps every combo to its blas::ComboTypes; the timing
// paths below are written once over those types. What differs between
// the float combos and the quantized one is this overload set: operand
// fill, the scalar reference and the fast path. A new combo is one
// visitCombo case plus, for a new kind, one overload of each.

template <typename T>
void
fillRandom(Matrix<T> &m, Rng &rng)
{
    for (std::size_t i = 0; i < m.rows(); ++i)
        for (std::size_t j = 0; j < m.cols(); ++j)
            m(i, j) = T(static_cast<float>(rng.uniform(-1.0, 1.0)));
}

/** Full-range int8 operands (the float fill would truncate to
 *  {-1, 0, 1} and leave the requantizer untested). */
void
fillRandom(Matrix<std::int8_t> &m, Rng &rng)
{
    for (std::size_t i = 0; i < m.rows(); ++i)
        for (std::size_t j = 0; j < m.cols(); ++j)
            m(i, j) = static_cast<std::int8_t>(
                std::lround(rng.uniform(-128.0, 127.0)));
}

/** The quantization parameters every i8gemm timing uses: asymmetric
 *  (nonzero zero points) so the epilogue's correction terms are on the
 *  measured path, scales sized so outputs span [-128, 127]. */
blas::QuantParams
perfQuantParams()
{
    blas::QuantParams qp;
    qp.scaleA = 0.02f;
    qp.scaleB = 0.05f;
    qp.scaleD = 0.25f;
    qp.zeroA = 3;
    qp.zeroB = -5;
    qp.zeroD = 1;
    return qp;
}

/** Random m x k A, k x n B and m x n C in one combo's host types. */
template <typename Types>
struct Operands
{
    Matrix<typename Types::TAB> a, b;
    Matrix<typename Types::TCD> c;

    Operands(std::size_t m, std::size_t n, std::size_t k,
             std::uint64_t seed)
        : a(m, k), b(k, n), c(m, n)
    {
        Rng rng(seed);
        fillRandom(a, rng);
        fillRandom(b, rng);
        fillRandom(c, rng);
    }
};

/**
 * The pre-blocking triple loop the fast backend replaced (i, j, then
 * k innermost, widening every operand read): the "legacy" baseline of
 * the timing rows and of the --check gate, as BENCH_pr4 measured it.
 * blas::scalarReferenceGemm computes the same bits with k outermost
 * over a row of accumulators, which makes it cheap per row for host
 * verification but no longer this baseline.
 */
template <typename Types>
void
scalarGemm(const Operands<Types> &p, Matrix<typename Types::TCD> &d)
{
    using TCD = typename Types::TCD;
    using TAB = typename Types::TAB;
    using TAcc = typename Types::TAcc;
    for (std::size_t i = 0; i < p.a.rows(); ++i) {
        for (std::size_t j = 0; j < p.b.cols(); ++j) {
            TAcc acc = TAcc(0);
            for (std::size_t kk = 0; kk < p.a.cols(); ++kk) {
                acc += static_cast<TAcc>(
                           fp::NumericTraits<TAB>::widen(p.a(i, kk))) *
                       static_cast<TAcc>(
                           fp::NumericTraits<TAB>::widen(p.b(kk, j)));
                if (Types::roundEachStep)
                    acc = static_cast<TAcc>(
                        fp::NumericTraits<TCD>::widen(TCD(acc)));
            }
            d(i, j) = TCD(static_cast<TAcc>(kAlpha) * acc +
                          static_cast<TAcc>(kBeta) *
                              static_cast<TAcc>(
                                  fp::NumericTraits<TCD>::widen(p.c(i, j))));
        }
    }
}

void
scalarGemm(const Operands<blas::QuantizedComboTypes> &p,
           Matrix<std::int8_t> &d)
{
    blas::scalarQuantizedGemm(kAlpha, p.a, p.b, kBeta, p.c, d,
                              perfQuantParams());
}

template <typename Types>
void
fastGemm(const Operands<Types> &p, Matrix<typename Types::TCD> &d,
         const blas::FunctionalGemmOptions &opts)
{
    blas::referenceGemm<typename Types::TCD, typename Types::TAB,
                        typename Types::TAcc>(
        kAlpha, p.a, p.b, kBeta, p.c, d, Types::roundEachStep, opts);
}

void
fastGemm(const Operands<blas::QuantizedComboTypes> &p,
         Matrix<std::int8_t> &d, const blas::FunctionalGemmOptions &opts)
{
    blas::fastQuantizedGemm(kAlpha, p.a, p.b, kBeta, p.c, d,
                            perfQuantParams(), opts);
}

/** The built-in blocks pinned explicitly: with a tuning artifact
 *  active, auto (0) fields would resolve to the tuned blocks. */
blas::FunctionalGemmOptions
defaultBlockOptions(blas::SimdTier tier, int threads)
{
    blas::FunctionalGemmOptions opts;
    opts.threads = threads;
    opts.simd = tier;
    opts.blockM = blas::kDefaultBlockM;
    opts.blockN = blas::kDefaultBlockN;
    opts.blockK = blas::kDefaultBlockK;
    return opts;
}

/**
 * Time one combo at n x n x n: the legacy scalar reference (when
 * @p with_scalar), then every tier x thread count of the fast path,
 * memcmp-checking each result against the scalar tier's.
 */
template <typename Types>
CaseResult
runCase(blas::GemmCombo combo, std::size_t n,
        const std::vector<blas::SimdTier> &tiers,
        const std::vector<int> &threads, int reps, bool with_scalar,
        std::uint64_t seed)
{
    using TCD = typename Types::TCD;
    const Operands<Types> p(n, n, n, seed);

    CaseResult out;
    out.combo = combo;
    out.n = n;
    out.roundEachStep = Types::roundEachStep;

    Matrix<TCD> d_scalar(n, n);
    if (with_scalar) {
        // One scalar pass is minutes at N = 2048; take the best of two
        // only when it is cheap.
        out.scalarSeconds =
            bestOf(n <= 512 ? 2 : 1, [&] { scalarGemm(p, d_scalar); });
    }

    // The scalar tier runs first (callers put it first): its result is
    // the memcmp anchor for every SIMD tier, and its per-thread-count
    // timings are their speedup baseline.
    Matrix<TCD> d_anchor(n, n);
    bool have_anchor = false;
    std::map<int, double> scalar_tier_seconds;

    Matrix<TCD> d_fast(n, n);
    const bool tuned_compare = blas::tuningActive();
    for (blas::SimdTier tier : tiers) {
        for (int t : threads) {
            // This timing is the *default*-blocks baseline.
            const blas::FunctionalGemmOptions opts =
                defaultBlockOptions(tier, t);
            const double best =
                bestOf(reps, [&] { fastGemm(p, d_fast, opts); });
            if (with_scalar && !bytesEqual(d_fast, d_scalar)) {
                mc_fatal("fast backend diverged from the legacy scalar "
                         "path: ", blas::comboInfo(combo).name, " n=", n,
                         " simd=", blas::simdTierName(tier),
                         " threads=", t);
            }
            if (!have_anchor) {
                d_anchor = d_fast;
                have_anchor = true;
            } else if (!bytesEqual(d_fast, d_anchor)) {
                mc_fatal("SIMD tier diverged from the scalar tier: ",
                         blas::comboInfo(combo).name, " n=", n,
                         " simd=", blas::simdTierName(tier),
                         " threads=", t);
            }
            if (tier == blas::SimdTier::Scalar)
                scalar_tier_seconds[t] = best;
            TierTiming timing;
            timing.tier = tier;
            timing.threads = t;
            timing.seconds = best;
            timing.speedupLegacy =
                out.scalarSeconds > 0.0 ? out.scalarSeconds / best : 0.0;
            const auto base = scalar_tier_seconds.find(t);
            timing.speedupVsScalarTier =
                base != scalar_tier_seconds.end() ? base->second / best
                                                  : 0.0;

            // What the auto fields resolve to right now (the artifact
            // entry when one covers this key, the defaults otherwise).
            blas::FunctionalGemmOptions auto_opts;
            auto_opts.threads = t;
            auto_opts.simd = tier;
            const blas::FunctionalGemmOptions resolved =
                blas::resolveFunctionalOptions(auto_opts, combo, n);
            timing.resolvedConfig = {resolved.blockM, resolved.blockN,
                                     resolved.blockK, resolved.threads};
            timing.tunedApplied =
                tuned_compare &&
                (resolved.blockM != blas::kDefaultBlockM ||
                 resolved.blockN != blas::kDefaultBlockN ||
                 resolved.blockK != blas::kDefaultBlockK);
            if (timing.tunedApplied) {
                const double tuned_best =
                    bestOf(reps, [&] { fastGemm(p, d_fast, auto_opts); });
                if (!bytesEqual(d_fast, d_anchor)) {
                    mc_fatal("tuned blocks diverged from the scalar-tier "
                             "anchor: ", blas::comboInfo(combo).name,
                             " n=", n, " simd=", blas::simdTierName(tier),
                             " threads=", t);
                }
                timing.tunedSeconds = tuned_best;
                timing.tunedSpeedup =
                    tuned_best > 0.0 ? best / tuned_best : 0.0;
            } else if (tuned_compare) {
                // The artifact resolves to the defaults here: the
                // baseline measurement doubles as the tuned one.
                timing.tunedSeconds = best;
                timing.tunedSpeedup = 1.0;
            }
            out.fast.push_back(timing);
        }
    }
    return out;
}

// ---- The autotuner (--tune) ----------------------------------------------

/** One (combo, tier, bucket) search outcome, for the report. */
struct TuneCaseResult
{
    blas::TuneKey key;
    std::size_t tunedN = 0;
    blas::TuneSearchResult search;
};

template <typename Types>
TuneCaseResult
tuneCase(blas::GemmCombo combo, std::size_t n, blas::SimdTier tier,
         int reps, double budget_sec,
         const std::vector<int> &thread_candidates, std::uint64_t seed)
{
    using TCD = typename Types::TCD;
    using TAB = typename Types::TAB;
    const Operands<Types> p(n, n, n, seed);

    // The memcmp anchor: default blocks on the scalar tier. Every
    // candidate configuration must reproduce these bytes exactly —
    // the tuner refuses to persist a configuration it has not proven
    // bit-identical.
    Matrix<TCD> d_anchor(n, n), d_fast(n, n);
    fastGemm(p, d_anchor, defaultBlockOptions(blas::SimdTier::Scalar, 1));

    prof::TopdownCounters counters;
    prof::TopdownHints hints;
    hints.flops = 2.0 * static_cast<double>(n) * static_cast<double>(n) *
                  static_cast<double>(n);
    hints.bytes = static_cast<double>(n) * static_cast<double>(n) *
                  static_cast<double>(2 * sizeof(TAB) + 2 * sizeof(TCD));

    const auto measure = [&](const blas::TunedConfig &config) {
        blas::FunctionalGemmOptions opts;
        opts.threads = config.threads;
        opts.blockM = config.blockM;
        opts.blockN = config.blockN;
        opts.blockK = config.blockK;
        opts.simd = tier;
        prof::TopdownSample best;
        best.seconds = std::numeric_limits<double>::max();
        for (int r = 0; r < reps; ++r) {
            const prof::TopdownSample sample =
                counters.measure([&] { fastGemm(p, d_fast, opts); });
            if (sample.seconds < best.seconds)
                best = sample;
        }
        if (!bytesEqual(d_fast, d_anchor)) {
            mc_fatal("candidate blocks diverged from the scalar anchor: ",
                     blas::comboInfo(combo).name, " n=", n,
                     " simd=", blas::simdTierName(tier),
                     " bm=", config.blockM, " bn=", config.blockN,
                     " bk=", config.blockK, " threads=", config.threads);
        }
        blas::TuneMeasurement m;
        m.seconds = best.seconds;
        m.bound = prof::classifySample(best, hints);
        return m;
    };

    blas::TuneSearchSpace space;
    space.accBytes = sizeof(typename Types::TAcc);
    space.budgetSec = budget_sec;
    space.threads = thread_candidates;

    TuneCaseResult out;
    out.key = blas::TuneKey{combo, tier, blas::tuneBucket(n)};
    out.tunedN = n;
    out.search = blas::tuneSearch(measure, space);
    return out;
}

std::vector<std::string>
splitCsv(const std::string &list)
{
    std::vector<std::string> out;
    std::stringstream ss(list);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

/** The comma-separated entries of @p list (the value of --@p flag),
 *  each a positive integer; anything else is a usage error. */
template <typename T>
std::vector<T>
parsePositiveList(const CliParser &cli, const std::string &flag,
                  const std::string &list)
{
    std::vector<T> out;
    for (const std::string &item : splitCsv(list)) {
        T value = 0;
        const char *end = item.data() + item.size();
        const auto [ptr, ec] = std::from_chars(item.data(), end, value);
        if (ec != std::errc() || ptr != end || value <= 0)
            cli.usageError("--" + flag + ": '" + item +
                           "' is not a positive integer");
        out.push_back(value);
    }
    return out;
}

/** Geometric mean of @p ratios; 0 when empty. */
double
geomean(const std::vector<double> &ratios)
{
    if (ratios.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double r : ratios)
        log_sum += std::log(r);
    return std::exp(log_sum / static_cast<double>(ratios.size()));
}

/** The CPU feature bits behind the tier ladder, for the reports. */
JsonValue
cpuFeaturesJson()
{
    const blas::CpuFeatures &cpu = blas::cpuFeatures();
    JsonValue features = JsonValue::object();
    features.set("sse2", cpu.sse2);
    features.set("avx2", cpu.avx2);
    features.set("f16c", cpu.f16c);
    features.set("avx512", cpu.avx512);
    features.set("avx512vnni", cpu.avx512vnni);
    features.set("neon", cpu.neon);
    return features;
}

/** Publish @p report atomically at --out (nothing without --out).
 *  Returns the process exit code: DataLoss when the commit fails. */
int
writeReport(const CliParser &cli, const JsonValue &report)
{
    const std::string out_path = cli.getString("out");
    if (out_path.empty())
        return exitCodeFor(ErrorCode::Ok);
    AtomicFileWriter writer(out_path);
    writer.stream() << report.serialize() << "\n";
    const Status committed = writer.commit();
    if (!committed.isOk()) {
        std::fprintf(stderr, "[mc_perf] --out commit failed: %s\n",
                     committed.toString().c_str());
        return exitCodeFor(ErrorCode::DataLoss);
    }
    return exitCodeFor(ErrorCode::Ok);
}

// ---- The packed-operand reuse sweep (--pack-bench) -----------------------

struct PackShape
{
    std::size_t m = 0, n = 0, k = 0;
};

/** One warm-vs-cold row of the pack sweep. */
struct PackRow
{
    blas::GemmCombo combo = blas::GemmCombo::Hhs;
    /** qt-chain stage name; empty for --shape / --decode rows. */
    std::string stage;
    PackShape shape;
    std::size_t batch = 1;
    /** Decode-preset row with m <= 16: counted in the acceptance
     *  geomean (ISSUE 10). */
    bool decodeShaped = false;
    double coldSec = 0.0; ///< per-call seconds, pack cache disabled
    double warmSec = 0.0; ///< per-call seconds, cache primed
    double speedup = 0.0; ///< coldSec / warmSec
    /** Per-repetition per-call seconds (rep r of the cold and warm
     *  bursts): the qt-chain summary sums these across stages per rep
     *  so its speedup is geomeaned over whole-chain replays. */
    std::vector<double> coldRepSec, warmRepSec;
    std::uint64_t packHits = 0;
    std::uint64_t packMisses = 0;
    std::uint64_t packBytes = 0;
};

/** Calls per timing sample: a decode-shaped GEMM finishes in
 *  microseconds, so one sample times a burst and divides — that is
 *  also exactly the replay pattern the cache exists for. */
int
packBenchInner(const PackShape &s, std::size_t batch)
{
    const double ops = 2.0 * static_cast<double>(s.m) *
                       static_cast<double>(s.n) *
                       static_cast<double>(s.k) *
                       static_cast<double>(batch);
    constexpr double kTargetOps = 6.4e7;
    if (ops >= kTargetOps)
        return 1;
    return std::min(512, std::max(1, static_cast<int>(kTargetOps / ops)));
}

/**
 * The shared warm/cold protocol. @p run executes one full call into
 * the caller's cold or warm output buffer; timings are best-of-reps
 * over bursts of @p inner calls. Cold disables the pack cache (every
 * call re-stages through the scratch arena); warm clears + primes it,
 * so every timed call hits. The caller memcmps the two outputs — a
 * difference is a correctness bug, not a perf result.
 */
template <typename ColdFn, typename WarmFn>
void
packTimeRow(PackRow &row, int reps, int inner, const ColdFn &run_cold,
            const WarmFn &run_warm)
{
    // Best per-call seconds over the reps; each rep's lands in @p per_rep.
    const auto time_bursts = [&](const auto &run,
                                 std::vector<double> &per_rep) {
        double best = std::numeric_limits<double>::max();
        for (int r = 0; r < reps; ++r) {
            const double t0 = nowSeconds();
            for (int i = 0; i < inner; ++i)
                run();
            per_rep.push_back((nowSeconds() - t0) / inner);
            best = std::min(best, per_rep.back());
        }
        return best;
    };

    blas::PackCache::setEnabled(false);
    row.coldSec = time_bursts(run_cold, row.coldRepSec);

    blas::PackCache::setEnabled(true);
    blas::PackCache::instance().clear();
    run_warm(); // prime: the misses land here, the timed calls hit
    const blas::PackCacheStats before = blas::PackCache::globalStats();
    row.warmSec = time_bursts(run_warm, row.warmRepSec);
    const blas::PackCacheStats after = blas::PackCache::globalStats();

    row.speedup = row.warmSec > 0.0 ? row.coldSec / row.warmSec : 0.0;
    row.packHits = after.hits - before.hits;
    row.packMisses = after.misses - before.misses;
    row.packBytes = after.residentBytes;
}

template <typename Types>
PackRow
packBenchCase(blas::GemmCombo combo, const PackShape &shape,
              bool decode_shaped, int reps, std::uint64_t seed)
{
    const Operands<Types> p(shape.m, shape.n, shape.k, seed);
    blas::FunctionalGemmOptions opts;
    opts.threads = 1;

    PackRow row;
    row.combo = combo;
    row.shape = shape;
    row.decodeShaped = decode_shaped;

    Matrix<typename Types::TCD> d_cold(shape.m, shape.n),
        d_warm(shape.m, shape.n);
    packTimeRow(row, reps, packBenchInner(shape, 1),
                [&] { fastGemm(p, d_cold, opts); },
                [&] { fastGemm(p, d_warm, opts); });
    if (!bytesEqual(d_cold, d_warm)) {
        mc_fatal("pack cache changed the result bytes: ",
                 blas::comboInfo(combo).name, " m=", shape.m,
                 " n=", shape.n, " k=", shape.k);
    }
    return row;
}

/** "m,n,k" triples separated by ';'. */
std::vector<PackShape>
parseShapeList(const CliParser &cli, const std::string &text)
{
    std::vector<PackShape> shapes;
    std::stringstream ss(text);
    std::string triple;
    while (std::getline(ss, triple, ';')) {
        if (triple.empty())
            continue;
        const std::vector<std::size_t> dims =
            parsePositiveList<std::size_t>(cli, "shape", triple);
        if (dims.size() != 3)
            cli.usageError("--shape: '" + triple +
                           "' is not an m,n,k triple");
        shapes.push_back({dims[0], dims[1], dims[2]});
    }
    return shapes;
}

/** The decode preset: token-generation GEMM shapes. m is the batch of
 *  in-flight tokens; the weight panel (n x k) is what the pack cache
 *  amortizes. hgemm is deliberately absent — its per-step-rounded
 *  chain is compute-bound even at m = 1. */
constexpr std::size_t kDecodeM[] = {1, 8, 16, 64};
constexpr std::size_t kDecodeNk[] = {768, 2048};
constexpr blas::GemmCombo kDecodeCombos[] = {
    blas::GemmCombo::Hhs, blas::GemmCombo::Hss,
    blas::GemmCombo::I8gemm};

/** The ext_quant_transformer block's GEMM chain at seq = 128 (GPT-2
 *  small), re-timed here wall-clock warm vs cold — the bench itself
 *  measures simulated device time, so the pack win shows up in its
 *  --verify path and in this chain, not in its TOPS column. */
struct QtStage
{
    const char *name;
    std::size_t m, n, k, batch;
};
constexpr QtStage kQtChain[] = {
    {"qkv_proj", 128, 3 * 768, 768, 1},
    {"attn_scores", 128, 128, 64, 12},
    {"attn_context", 128, 64, 128, 12},
    {"out_proj", 128, 768, 768, 1},
    {"mlp_up", 128, 4 * 768, 768, 1},
    {"mlp_down", 128, 768, 4 * 768, 1},
};

/** One int8 qt-chain stage through fastBatchedQuantizedGemm: the
 *  attention stages carry their per-head batch, every entry's
 *  operands distinct (stacked row-wise in one matrix per operand). */
PackRow
packBenchQtStage(const QtStage &st, int reps, std::uint64_t seed)
{
    const std::size_t m = st.m, n = st.n, k = st.k, batch = st.batch;
    Rng rng(seed);
    Matrix<std::int8_t> a(batch * m, k), b(batch * k, n), c(batch * m, n);
    fillRandom(a, rng);
    fillRandom(b, rng);
    fillRandom(c, rng);
    const blas::QuantParams qp = perfQuantParams();
    blas::FunctionalGemmOptions opts;
    opts.threads = 1;

    PackRow row;
    row.combo = blas::GemmCombo::I8gemm;
    row.stage = st.name;
    row.shape = {m, n, k};
    row.batch = batch;

    const auto run = [&](Matrix<std::int8_t> &d) {
        blas::fastBatchedQuantizedGemm(batch, kAlpha, a.data(), m * k,
                                       b.data(), k * n, kBeta, c.data(),
                                       m * n, d.data(), m * n, m, n, k,
                                       qp, opts);
    };
    Matrix<std::int8_t> d_cold(batch * m, n), d_warm(batch * m, n);
    packTimeRow(row, reps, packBenchInner(row.shape, batch),
                [&] { run(d_cold); }, [&] { run(d_warm); });
    if (!bytesEqual(d_cold, d_warm)) {
        mc_fatal("pack cache changed the result bytes: i8gemm [",
                 st.name, "] m=", m, " n=", n, " k=", k,
                 " batch=", batch);
    }
    return row;
}

int
runPackBench(const CliParser &cli,
             const std::vector<blas::GemmCombo> &combos)
{
    const int reps = static_cast<int>(cli.getInt("reps"));
    const auto seed = static_cast<std::uint64_t>(cli.getInt("seed"));
    const std::vector<PackShape> shapes =
        parseShapeList(cli, cli.getString("shape"));
    const auto bench = [&](blas::GemmCombo combo, const PackShape &s,
                           bool decode_shaped) {
        return blas::visitCombo(combo, [&](auto types) {
            return packBenchCase<decltype(types)>(combo, s, decode_shaped,
                                                  reps, seed);
        });
    };

    std::vector<PackRow> rows;
    // Explicit --shape rows run under the --combos selection.
    for (const PackShape &s : shapes) {
        for (blas::GemmCombo combo : combos) {
            std::fprintf(stderr,
                         "[mc_perf] pack %s m=%zu n=%zu k=%zu...\n",
                         blas::comboInfo(combo).name, s.m, s.n, s.k);
            rows.push_back(bench(combo, s, false));
        }
    }
    if (cli.getBool("decode")) {
        for (blas::GemmCombo combo : kDecodeCombos) {
            for (std::size_t nk : kDecodeNk) {
                for (std::size_t m : kDecodeM) {
                    std::fprintf(stderr,
                                 "[mc_perf] pack decode %s m=%zu "
                                 "nk=%zu...\n",
                                 blas::comboInfo(combo).name, m, nk);
                    rows.push_back(bench(combo, {m, nk, nk}, m <= 16));
                }
            }
        }
        for (const QtStage &st : kQtChain) {
            std::fprintf(stderr, "[mc_perf] pack qt %s...\n", st.name);
            rows.push_back(packBenchQtStage(st, reps, seed));
        }
    }
    if (rows.empty()) {
        std::fprintf(stderr,
                     "[mc_perf] --pack-bench needs --shape and/or "
                     "--decode\n");
        return exitCodeFor(ErrorCode::InvalidArgument);
    }
    blas::PackCache::setEnabled(true);

    std::vector<double> decode_ratios;
    for (const PackRow &r : rows) {
        std::printf("pack %-6s %-12s m=%-4zu n=%-4zu k=%-4zu batch=%-2zu "
                    "cold=%10.3e warm=%10.3e speedup=%5.2fx hits=%llu "
                    "misses=%llu bytes=%llu\n",
                    blas::comboInfo(r.combo).name,
                    r.stage.empty() ? "-" : r.stage.c_str(), r.shape.m,
                    r.shape.n, r.shape.k, r.batch, r.coldSec, r.warmSec,
                    r.speedup,
                    static_cast<unsigned long long>(r.packHits),
                    static_cast<unsigned long long>(r.packMisses),
                    static_cast<unsigned long long>(r.packBytes));
        if (r.decodeShaped && r.speedup > 0.0)
            decode_ratios.push_back(r.speedup);
    }
    const double decode_geo = geomean(decode_ratios);
    if (!decode_ratios.empty())
        std::printf("geomean(decode m<=16) warm_vs_cold=%5.2fx\n",
                    decode_geo);

    // The qt summary reflects how ext_quant_transformer actually
    // replays: one warm rep runs the *whole* chain, so each rep's
    // speedup is the time-weighted chain total (the big projection /
    // MLP GEMMs dominate wall clock, not the tiny per-head attention
    // multiplies), geomeaned across the replays.
    std::vector<double> qt_ratios;
    for (int rep = 0; rep < reps; ++rep) {
        double cold_sum = 0.0, warm_sum = 0.0;
        for (const PackRow &r : rows) {
            if (!r.stage.empty()) {
                cold_sum += r.coldRepSec[rep];
                warm_sum += r.warmRepSec[rep];
            }
        }
        if (warm_sum > 0.0)
            qt_ratios.push_back(cold_sum / warm_sum);
    }
    const double qt_geo = geomean(qt_ratios);
    if (!qt_ratios.empty())
        std::printf("geomean(qt chain reps) warm_vs_cold=%5.2fx\n",
                    qt_geo);

    JsonValue report = JsonValue::object();
    report.set("bench", "mc_perf --pack-bench");
    report.set("description",
               "packed-operand reuse: per-call wall-clock with the "
               "pack cache disabled (cold: every call re-stages "
               "through the scratch arena) vs primed (warm: staged "
               "panels served by content fingerprint). Outputs are "
               "memcmp-identical in both modes.");
    report.set("best_tier", blas::simdTierName(blas::bestSimdTier()));
    report.set("cpu_features", cpuFeaturesJson());
    JsonValue jrows = JsonValue::array();
    for (const PackRow &r : rows) {
        JsonValue jr = JsonValue::object();
        jr.set("combo", blas::comboInfo(r.combo).name);
        if (!r.stage.empty())
            jr.set("stage", r.stage);
        jr.set("m", static_cast<std::int64_t>(r.shape.m));
        jr.set("n", static_cast<std::int64_t>(r.shape.n));
        jr.set("k", static_cast<std::int64_t>(r.shape.k));
        jr.set("batch", static_cast<std::int64_t>(r.batch));
        jr.set("decode_shaped", r.decodeShaped);
        jr.set("cold_sec", r.coldSec);
        jr.set("warm_sec", r.warmSec);
        jr.set("speedup_warm_vs_cold", r.speedup);
        jr.set("pack_hits", static_cast<std::int64_t>(r.packHits));
        jr.set("pack_misses", static_cast<std::int64_t>(r.packMisses));
        jr.set("pack_bytes", static_cast<std::int64_t>(r.packBytes));
        jrows.append(std::move(jr));
    }
    report.set("rows", std::move(jrows));
    if (!decode_ratios.empty())
        report.set("geomean_decode_warm_vs_cold", decode_geo);
    if (!qt_ratios.empty())
        report.set("geomean_qt_chain_warm_vs_cold", qt_geo);
    if (const int rc = writeReport(cli, report); rc != 0)
        return rc;

    if (cli.getBool("check")) {
        const double min_speedup = cli.getDouble("min-speedup");
        if (!decode_ratios.empty() && decode_geo < min_speedup) {
            std::fprintf(stderr,
                         "[mc_perf] FAILED: decode warm/cold geomean "
                         "%.2fx below required %.2fx\n",
                         decode_geo, min_speedup);
            return exitCodeFor(ErrorCode::Internal);
        }
    }
    return exitCodeFor(ErrorCode::Ok);
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("mc_perf: functional-GEMM backend timing (legacy "
                  "scalar loops vs blocked backend per SIMD tier)");
    cli.addFlag("sizes", std::string("512,1024"),
                "comma-separated square problem sizes");
    cli.addFlag("combos", std::string("all"),
                "comma-separated datatype combos (dgemm,sgemm,hgemm,"
                "hss,hhs,i8gemm) or 'all'");
    cli.addFlag("threads", std::string("1,8"),
                "comma-separated thread counts for the fast path");
    cli.addFlag("simd", std::string("all"),
                "comma-separated micro-kernel tiers (scalar,sse2,avx2,"
                "avx512,neon) or 'all' = every tier this CPU supports");
    cli.addFlag("reps", static_cast<std::int64_t>(3),
                "fast-path repetitions per case (best-of)");
    cli.requireIntAtLeast("reps", 1);
    cli.addFlag("scalar-maxn", static_cast<std::int64_t>(4096),
                "skip the legacy scalar baseline (the cross-check "
                "against the scalar *tier* always runs) above this size");
    cli.addFlag("seed", static_cast<std::int64_t>(0x5eed),
                "operand randomization seed");
    cli.addFlag("out", std::string(),
                "write the JSON report atomically to this file "
                "(e.g. BENCH_pr5.json)");
    cli.addFlag("check", false,
                "exit nonzero unless every SIMD tier clears "
                "--min-speedup vs the scalar tier (the perf ctest "
                "smoke)");
    cli.addFlag("min-speedup", 1.0,
                "with --check: required speedup ratio");
    cli.addFlag("tune", false,
                "autotune block sizes per (combo, tier, size bucket) and "
                "persist the winners to --tune-out instead of running "
                "the timing sweep");
    cli.addFlag("tune-reps", static_cast<std::int64_t>(2),
                "with --tune: measurements per candidate (best-of)");
    cli.requireIntAtLeast("tune-reps", 1);
    cli.addFlag("tune-budget-sec", 20.0,
                "with --tune: measurement budget per (combo, tier, "
                "bucket) search");
    cli.requirePositiveDouble("tune-budget-sec");
    cli.addFlag("tune-out", std::string("mc_tune.json"),
                "with --tune: artifact output path");
    cli.addFlag("tune-apply", std::string(),
                "activate this tuning artifact for the timing sweep "
                "(also honours the MC_TUNE environment variable)");
    cli.addFlag("pack-bench", false,
                "time each shape warm (pack cache primed) vs cold "
                "(cache disabled) instead of the tier sweep; outputs "
                "are memcmp-checked identical in both modes");
    cli.addFlag("shape", std::string(),
                "with --pack-bench: semicolon-separated m,n,k triples "
                "(e.g. '1,768,768;16,2048,2048'), run per --combos");
    cli.addFlag("decode", false,
                "with --pack-bench: add the decode preset (m in "
                "{1,8,16,64} x n=k in {768,2048}, combos hhs/hss/"
                "i8gemm) plus the quantized GPT-2 block chain at "
                "seq=128");
    cli.parse(argc, argv);

    std::vector<blas::GemmCombo> combos;
    const std::string combo_list = cli.getString("combos");
    if (combo_list == "all") {
        combos.assign(std::begin(blas::allLibraryCombos),
                      std::end(blas::allLibraryCombos));
    } else {
        for (const std::string &name : splitCsv(combo_list))
            combos.push_back(blas::parseCombo(name));
    }

    if (cli.getBool("pack-bench") || cli.getBool("decode") ||
        !cli.getString("shape").empty())
        return runPackBench(cli, combos);

    const std::vector<std::size_t> sizes =
        parsePositiveList<std::size_t>(cli, "sizes", cli.getString("sizes"));
    const std::vector<int> threads =
        parsePositiveList<int>(cli, "threads", cli.getString("threads"));

    // Resolve the tier list. The scalar tier always runs (and runs
    // first): it is the memcmp anchor and the speedup baseline.
    const std::vector<blas::SimdTier> available =
        blas::availableSimdTiers();
    std::vector<blas::SimdTier> tiers{blas::SimdTier::Scalar};
    std::vector<std::string> unavailable_requested;
    const std::string simd_list = cli.getString("simd");
    if (simd_list == "all") {
        for (blas::SimdTier tier : available)
            if (tier != blas::SimdTier::Scalar)
                tiers.push_back(tier);
    } else {
        for (const std::string &name : splitCsv(simd_list)) {
            blas::SimdTier tier;
            if (!blas::parseSimdTier(name, &tier) ||
                tier == blas::SimdTier::Auto)
                cli.usageError("--simd: unknown tier '" + name + "'");
            if (!blas::simdTierAvailable(tier)) {
                unavailable_requested.push_back(name);
                std::fprintf(stderr,
                             "[mc_perf] tier '%s' unavailable on this "
                             "CPU; skipping\n", name.c_str());
                continue;
            }
            if (tier != blas::SimdTier::Scalar)
                tiers.push_back(tier);
        }
    }
    if (sizes.empty() || threads.empty() || combos.empty()) {
        std::fprintf(stderr, "nothing to measure\n");
        return exitCodeFor(ErrorCode::InvalidArgument);
    }

    const int reps = static_cast<int>(cli.getInt("reps"));
    const auto scalar_maxn =
        static_cast<std::size_t>(cli.getInt("scalar-maxn"));
    const auto seed = static_cast<std::uint64_t>(cli.getInt("seed"));

    const std::string apply_path = cli.getString("tune-apply");
    if (!apply_path.empty()) {
        Result<blas::TuningArtifact> loaded =
            blas::loadTuningArtifact(apply_path);
        if (!loaded.isOk()) {
            std::fprintf(stderr, "[mc_perf] --tune-apply failed: %s\n",
                         loaded.status().toString().c_str());
            return exitCodeFor(loaded.status().code());
        }
        const Status activated =
            blas::setActiveTuningArtifact(loaded.take());
        if (!activated.isOk()) {
            std::fprintf(stderr, "[mc_perf] --tune-apply failed: %s\n",
                         activated.toString().c_str());
            return exitCodeFor(activated.code());
        }
        std::fprintf(stderr, "[mc_perf] tuning artifact active: %s\n",
                     blas::activeTuningLabel().c_str());
    }

    if (cli.getBool("tune")) {
        const int tune_reps = static_cast<int>(cli.getInt("tune-reps"));
        const double budget_sec = cli.getDouble("tune-budget-sec");
        const std::string tune_out = cli.getString("tune-out");

        // Thread fan-out candidates: serial always, plus the machine's
        // full concurrency when it has more than one core.
        std::vector<int> thread_candidates{1};
        const int hw =
            static_cast<int>(exec::ThreadPool::hardwareThreads());
        if (hw > 1)
            thread_candidates.push_back(hw);

        blas::TuningArtifact artifact;
        artifact.fingerprint = blas::hostTuneFingerprint();
        artifact.createdBy = "mc_perf --tune";
        std::vector<TuneCaseResult> tuned_cases;
        for (blas::GemmCombo combo : combos) {
            for (blas::SimdTier tier : tiers) {
                for (std::size_t n : sizes) {
                    const blas::TuneKey key{combo, tier,
                                            blas::tuneBucket(n)};
                    if (artifact.entries.count(key) > 0)
                        continue; // this bucket is already tuned
                    std::fprintf(stderr,
                                 "[mc_perf] tune %s simd=%s n=%zu "
                                 "(bucket %zu, backend %s)...\n",
                                 blas::comboInfo(combo).name,
                                 blas::simdTierName(tier), n, key.nBucket,
                                 prof::topdownBackendName());
                    TuneCaseResult result =
                        blas::visitCombo(combo, [&](auto types) {
                            return tuneCase<decltype(types)>(
                                combo, n, tier, tune_reps, budget_sec,
                                thread_candidates, seed);
                        });
                    const blas::TuneSearchResult &s = result.search;
                    std::printf(
                        "tune %-6s simd=%-7s bucket=%-5zu "
                        "best=%d/%d/%d t=%d speedup=%5.2fx bound=%s "
                        "measured=%d pruned=%d%s\n",
                        blas::comboInfo(combo).name,
                        blas::simdTierName(tier), key.nBucket,
                        s.best.blockM, s.best.blockN, s.best.blockK,
                        s.best.threads, s.speedup,
                        prof::topdownClassName(s.bestBound), s.measured,
                        s.pruned,
                        s.budgetExhausted ? " (budget exhausted)" : "");
                    blas::TunedConfig def;
                    if (!(s.best == def)) {
                        blas::TuneEntry entry;
                        entry.config = s.best;
                        entry.speedupVsDefault = s.speedup;
                        entry.bound = prof::topdownClassName(s.bestBound);
                        entry.tunedN = result.tunedN;
                        artifact.entries.emplace(key, std::move(entry));
                    }
                    tuned_cases.push_back(std::move(result));
                }
            }
        }

        const Status saved = blas::saveTuningArtifact(artifact, tune_out);
        if (!saved.isOk()) {
            std::fprintf(stderr, "[mc_perf] --tune-out commit failed: "
                         "%s\n", saved.toString().c_str());
            return exitCodeFor(ErrorCode::DataLoss);
        }
        std::printf("tune: %zu entries -> %s (fingerprint %016llx, "
                    "profiling backend %s)\n",
                    artifact.entries.size(), tune_out.c_str(),
                    static_cast<unsigned long long>(artifact.fingerprint),
                    prof::topdownBackendName());

        JsonValue report = JsonValue::object();
        report.set("bench", "mc_perf --tune");
        report.set("host_threads",
                   static_cast<std::int64_t>(
                       exec::ThreadPool::hardwareThreads()));
        report.set("profiling_backend", prof::topdownBackendName());
        report.set("artifact", tune_out);
        JsonValue rows = JsonValue::array();
        for (const TuneCaseResult &t : tuned_cases) {
            JsonValue row = JsonValue::object();
            row.set("combo", blas::comboInfo(t.key.combo).name);
            row.set("simd", blas::simdTierName(t.key.tier));
            row.set("n_bucket",
                    static_cast<std::int64_t>(t.key.nBucket));
            row.set("tuned_n", static_cast<std::int64_t>(t.tunedN));
            row.set("block_m", t.search.best.blockM);
            row.set("block_n", t.search.best.blockN);
            row.set("block_k", t.search.best.blockK);
            row.set("threads", t.search.best.threads);
            row.set("speedup_vs_default", t.search.speedup);
            row.set("bound",
                    prof::topdownClassName(t.search.bestBound));
            row.set("measured", t.search.measured);
            row.set("pruned", t.search.pruned);
            row.set("budget_exhausted", t.search.budgetExhausted);
            rows.append(std::move(row));
        }
        report.set("searches", std::move(rows));
        return writeReport(cli, report);
    }

    std::vector<CaseResult> results;
    for (blas::GemmCombo combo : combos) {
        for (std::size_t n : sizes) {
            const bool with_scalar = n <= scalar_maxn;
            std::fprintf(stderr, "[mc_perf] %s n=%zu%s...\n",
                         blas::comboInfo(combo).name, n,
                         with_scalar ? "" : " (no legacy baseline)");
            results.push_back(blas::visitCombo(combo, [&](auto types) {
                return runCase<decltype(types)>(combo, n, tiers, threads,
                                                reps, with_scalar, seed);
            }));
        }
    }

    JsonValue report = JsonValue::object();
    report.set("bench", "mc_perf");
    report.set("description",
               "functional-GEMM wall-clock: legacy scalar loops vs "
               "blocked/packed/threaded backend per SIMD micro-kernel "
               "tier (bit-identical results across all of them)");
    report.set("host_threads",
               static_cast<std::int64_t>(exec::ThreadPool::hardwareThreads()));
    report.set("cpu_features", cpuFeaturesJson());
    JsonValue tiers_json = JsonValue::array();
    for (blas::SimdTier tier : tiers)
        tiers_json.append(blas::simdTierName(tier));
    report.set("tiers_measured", std::move(tiers_json));
    JsonValue unavailable_json = JsonValue::array();
    for (blas::SimdTier tier :
         {blas::SimdTier::Sse2, blas::SimdTier::Avx2,
          blas::SimdTier::Avx512, blas::SimdTier::Neon})
        if (!blas::simdTierAvailable(tier))
            unavailable_json.append(blas::simdTierName(tier));
    report.set("tiers_unavailable", std::move(unavailable_json));
    if (!unavailable_requested.empty()) {
        JsonValue skipped = JsonValue::array();
        for (const std::string &name : unavailable_requested)
            skipped.append(name);
        report.set("tiers_requested_but_unavailable", std::move(skipped));
    }
    report.set("best_tier",
               blas::simdTierName(blas::bestSimdTier()));
    report.set("tuned", blas::activeTuningLabel());

    JsonValue cases = JsonValue::array();
    bool check_ok = true;
    const double min_speedup = cli.getDouble("min-speedup");
    // Per-tier speedup-vs-scalar-tier ratios over N >= 1024, overall
    // and per combo, for the geometric-mean summary.
    std::map<blas::SimdTier, std::vector<double>> tier_ratios;
    std::map<blas::SimdTier, std::map<blas::GemmCombo,
                                      std::vector<double>>> combo_ratios;
    // Tuned-vs-default ratios over N >= 1024 (rows where the artifact
    // actually supplied non-default blocks).
    std::map<blas::SimdTier, std::vector<double>> tuned_ratios;
    std::map<blas::SimdTier, std::map<blas::GemmCombo,
                                      std::vector<double>>>
        tuned_combo_ratios;
    for (const CaseResult &r : results) {
        JsonValue entry = JsonValue::object();
        entry.set("combo", blas::comboInfo(r.combo).name);
        entry.set("n", static_cast<std::int64_t>(r.n));
        entry.set("round_each_step", r.roundEachStep);
        entry.set("host_threads",
                  static_cast<std::int64_t>(
                      exec::ThreadPool::hardwareThreads()));
        if (r.scalarSeconds > 0.0)
            entry.set("legacy_scalar_sec", r.scalarSeconds);
        JsonValue timings = JsonValue::array();
        for (const TierTiming &t : r.fast) {
            JsonValue jt = JsonValue::object();
            jt.set("simd", blas::simdTierName(t.tier));
            jt.set("threads", static_cast<std::int64_t>(t.threads));
            jt.set("sec", t.seconds);
            if (t.speedupLegacy > 0.0)
                jt.set("speedup_vs_legacy", t.speedupLegacy);
            if (t.speedupVsScalarTier > 0.0 &&
                t.tier != blas::SimdTier::Scalar)
                jt.set("speedup_vs_scalar_tier", t.speedupVsScalarTier);
            // The configuration this row resolved to, and — when an
            // artifact is active — the tuned-vs-default comparison.
            jt.set("block_m", t.resolvedConfig.blockM);
            jt.set("block_n", t.resolvedConfig.blockN);
            jt.set("block_k", t.resolvedConfig.blockK);
            jt.set("tuned", t.tunedApplied);
            if (t.tunedSeconds > 0.0) {
                jt.set("tuned_sec", t.tunedSeconds);
                jt.set("speedup_tuned_vs_default", t.tunedSpeedup);
            }
            timings.append(std::move(jt));

            std::printf("%-6s n=%-5zu simd=%-7s threads=%-2d "
                        "fast=%9.4fs",
                        blas::comboInfo(r.combo).name, r.n,
                        blas::simdTierName(t.tier), t.threads,
                        t.seconds);
            if (t.tier != blas::SimdTier::Scalar &&
                t.speedupVsScalarTier > 0.0)
                std::printf("  vs_scalar_tier=%6.2fx",
                            t.speedupVsScalarTier);
            if (t.speedupLegacy > 0.0)
                std::printf("  vs_legacy=%6.2fx", t.speedupLegacy);
            if (t.tunedApplied)
                std::printf("  tuned=%6.2fx(%d/%d/%d)", t.tunedSpeedup,
                            t.resolvedConfig.blockM,
                            t.resolvedConfig.blockN,
                            t.resolvedConfig.blockK);
            std::printf("\n");

            if (t.tunedApplied && t.tunedSpeedup > 0.0 && r.n >= 1024) {
                tuned_ratios[t.tier].push_back(t.tunedSpeedup);
                tuned_combo_ratios[t.tier][r.combo].push_back(
                    t.tunedSpeedup);
            }

            if (t.tier == blas::SimdTier::Scalar) {
                // The scalar tier is checked against the legacy loops:
                // the blocked backend must never regress below them.
                if (t.speedupLegacy > 0.0 && t.speedupLegacy < min_speedup)
                    check_ok = false;
            } else {
                if (t.speedupVsScalarTier > 0.0 &&
                    t.speedupVsScalarTier < min_speedup)
                    check_ok = false;
                if (r.n >= 1024 && t.speedupVsScalarTier > 0.0) {
                    tier_ratios[t.tier].push_back(t.speedupVsScalarTier);
                    combo_ratios[t.tier][r.combo].push_back(
                        t.speedupVsScalarTier);
                }
            }
        }
        entry.set("fast", std::move(timings));
        cases.append(std::move(entry));
    }
    report.set("results", std::move(cases));

    JsonValue geo = JsonValue::object();
    for (const auto &[tier, ratios] : tier_ratios) {
        JsonValue jt = JsonValue::object();
        jt.set("overall", geomean(ratios));
        for (const auto &[combo, cr] : combo_ratios[tier])
            jt.set(blas::comboInfo(combo).name, geomean(cr));
        std::printf("geomean(n>=1024) simd=%-7s vs_scalar_tier=%6.2fx\n",
                    blas::simdTierName(tier), geomean(ratios));
        geo.set(blas::simdTierName(tier), std::move(jt));
    }
    report.set("geomean_speedup_vs_scalar_tier_n1024", std::move(geo));

    if (!tuned_ratios.empty()) {
        JsonValue tuned_geo = JsonValue::object();
        for (const auto &[tier, ratios] : tuned_ratios) {
            JsonValue jt = JsonValue::object();
            jt.set("overall", geomean(ratios));
            for (const auto &[combo, cr] : tuned_combo_ratios[tier])
                jt.set(blas::comboInfo(combo).name, geomean(cr));
            std::printf("geomean(n>=1024) simd=%-7s "
                        "tuned_vs_default=%6.2fx\n",
                        blas::simdTierName(tier), geomean(ratios));
            tuned_geo.set(blas::simdTierName(tier), std::move(jt));
        }
        report.set("geomean_tuned_vs_default_n1024",
                   std::move(tuned_geo));
    }

    if (const int rc = writeReport(cli, report); rc != 0)
        return rc;

    if (cli.getBool("check") && !check_ok) {
        std::fprintf(stderr,
                     "[mc_perf] FAILED: a case fell below the required "
                     "%.2fx speedup\n",
                     min_speedup);
        return exitCodeFor(ErrorCode::Internal);
    }
    return exitCodeFor(ErrorCode::Ok);
}
