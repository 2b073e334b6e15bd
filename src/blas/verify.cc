#include "verify.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <sstream>
#include <type_traits>

#include "blas/batched_gemm.hh"
#include "blas/functional.hh"
#include "blas/int8_gemm.hh"
#include "common/logging.hh"
#include "common/random.hh"

namespace mc {
namespace blas {

namespace {

/**
 * Fill the @p rows x @p cols row-major block at @p p per @p scheme:
 * the paper's ones (the identity when @p identity, for B), or uniform
 * draws in row-major order (int8 on [-i8_span, i8_span], clipped to
 * the int8 range).
 */
template <typename T>
void
fillScheme(T *p, std::size_t rows, std::size_t cols, VerifyScheme scheme,
           bool identity, int i8_span, Rng &rng)
{
    for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t j = 0; j < cols; ++j) {
            T &v = p[i * cols + j];
            if (scheme == VerifyScheme::PaperOnesIdentity)
                v = T((!identity || i == j) ? 1.0f : 0.0f);
            else if constexpr (std::is_same_v<T, std::int8_t>)
                v = static_cast<std::int8_t>(std::clamp<long>(
                    std::lround(rng.uniform(-i8_span, i8_span)), -128,
                    127));
            else
                v = T(static_cast<float>(rng.uniform(-1.0, 1.0)));
        }
    }
}

/**
 * The operands of a verification run with @p entries batch entries:
 * one B shared by every entry (the stride-0 broadcast-weights
 * convention of the batched extension study), and each entry's A and
 * C as rows [e*m, (e+1)*m) of one stacked matrix — strided-batched
 * layout with strides m*k and m*n. An unbatched config is one entry.
 *
 * Every output element depends only on its own row of A and C, so a
 * reference call over rows gathered from the stacked operands gives
 * exactly what a full per-entry call would give for those rows.
 */
template <typename TCD, typename TAB>
struct Operands
{
    Matrix<TAB> a, b;
    Matrix<TCD> c;

    Operands(const GemmConfig &config, std::size_t entries,
             VerifyScheme scheme, std::uint64_t seed)
        : a(entries * config.m, config.k), b(config.k, config.n),
          c(entries * config.m, config.n)
    {
        const std::size_t m = config.m, n = config.n, k = config.k;
        // int8 A and B draw from a k-sized range; C spans all of int8.
        const int span = randomSchemeI8HalfWidth(
            k, effectiveQuantScale(config.alpha, config.quant));
        // Draw order: B, then each entry's A and C.
        Rng rng(seed);
        fillScheme(b.data(), k, n, scheme, true, span, rng);
        for (std::size_t e = 0; e < entries; ++e) {
            fillScheme(a.data() + e * m * k, m, k, scheme, false, span,
                       rng);
            fillScheme(c.data() + e * m * n, m, n, scheme, false, 128,
                       rng);
        }
    }
};

/** ULP distance of one element: fp::ulpDistance for the float types,
 *  the integer difference for int8. */
template <typename T>
std::uint64_t
elementUlp(T got, T want)
{
    if constexpr (std::is_same_v<T, std::int8_t>)
        return static_cast<std::uint64_t>(std::abs(got - want));
    else
        return fp::ulpDistance(got, want);
}

/** Check one element bitwise; record a mismatch at entry row @p i,
 *  column @p j. */
template <typename T>
void
checkElement(VerifyResult &result, T got, T want, std::size_t i,
             std::size_t j)
{
    if (std::memcmp(&got, &want, sizeof(T)) == 0)
        return;
    const std::uint64_t ulp = elementUlp(got, want);
    if (result.mismatches == 0 || ulp > result.maxUlp) {
        result.errorRow = i;
        result.errorCol = j;
    }
    ++result.mismatches;
    result.maxUlp = std::max(result.maxUlp, ulp);
    const double err = std::fabs(
        static_cast<double>(fp::NumericTraits<T>::widen(got)) -
        static_cast<double>(fp::NumericTraits<T>::widen(want)));
    if (err > result.maxAbsError)
        result.maxAbsError = err;
}

/** Rows @p rows of each of the @p entries m-row entries stacked in
 *  @p src, entry e's row rows[s] landing at row e*rows.size() + s. */
template <typename T>
Matrix<T>
gatherRows(const Matrix<T> &src, std::size_t m, std::size_t entries,
           const std::vector<std::size_t> &rows)
{
    const std::size_t cols = src.cols();
    Matrix<T> out(entries * rows.size(), cols);
    for (std::size_t e = 0; e < entries; ++e)
        for (std::size_t s = 0; s < rows.size(); ++s)
            std::memcpy(out.data() + (e * rows.size() + s) * cols,
                        src.data() + (e * m + rows[s]) * cols,
                        cols * sizeof(T));
    return out;
}

/** Finish @p result: the pass rule and the detail string,
 *  "<combo> MxNxK [batch E (of B) ]via <path> [strided-batched ]path:
 *  <what was checked>, <outcome>". */
void
finish(VerifyResult &result, const GemmConfig &config,
       VerifyScheme scheme, std::size_t sampled)
{
    result.passed = result.mismatches == 0;
    const bool batched = result.batchEntries > 1;
    std::ostringstream detail;
    detail << comboInfo(config.combo).name << " " << config.m << "x"
           << config.n << "x" << config.k;
    if (batched)
        detail << " batch " << result.batchEntries << " (of "
               << config.batchCount << ")";
    detail << " via " << (result.usedMatrixCores ? "MatrixCore" : "SIMD")
           << (batched ? " strided-batched" : "") << " path: " << sampled
           << " sampled rows vs the scalar reference"
           << (scheme == VerifyScheme::PaperOnesIdentity
                   ? " and every element vs the closed form"
                   : "")
           << ", " << result.mismatches << " mismatches, max ULP = ";
    if (result.maxUlp == fp::kUlpNan)
        detail << "NaN";
    else
        detail << result.maxUlp;
    detail << ", max |err| = " << result.maxAbsError << " at ("
           << result.errorRow << ", " << result.errorCol << ") (tol 0)";
    result.detail = detail.str();
}

/**
 * Run one float combo functionally: build operands, execute once
 * through the engine-selected path's strided-batched driver, and
 * check the sampled rows of each entry against the independent scalar
 * reference — the MFMA tile chain for Matrix Core plans, the
 * (per-step-rounded) triple loop for SIMD plans.
 */
template <typename TCD, typename TAB, typename TAcc>
VerifyResult
runTyped(const GemmConfig &config, const GemmPlan &plan,
         VerifyScheme scheme, std::uint64_t seed, bool round_each_step,
         const FunctionalGemmOptions &func, std::size_t entries)
{
    const std::size_t m = config.m, n = config.n, k = config.k;
    const std::size_t sa = m * k, sc = m * n;
    const bool tiled = plan.useMatrixCores;
    const Operands<TCD, TAB> ops(config, entries, scheme, seed);

    Matrix<TCD> d(entries * m, n);
    if (tiled) {
        fastBatchedTiledMatrixCoreGemm<TCD, TAB, TAcc>(
            *plan.inst, entries, config.alpha, ops.a.data(), sa,
            ops.b.data(), 0, config.beta, ops.c.data(), sc, d.data(), sc,
            m, n, k, func);
    } else {
        fastBatchedGemm<TCD, TAB, TAcc>(
            entries, config.alpha, ops.a.data(), sa, ops.b.data(), 0,
            config.beta, ops.c.data(), sc, d.data(), sc, m, n, k,
            round_each_step, func);
    }

    // The row block the driver resolved (the tiled path never rounds
    // per step, which selects its tuning key).
    const GemmCombo driven =
        comboForTypes<TCD, TAB, TAcc>(round_each_step && !tiled);
    const std::vector<std::size_t> rows = verifySampleRows(
        m, resolveFunctionalOptions(func, driven, n).blockM, seed);
    const Matrix<TAB> a_rows = gatherRows(ops.a, m, entries, rows);
    const Matrix<TCD> c_rows = gatherRows(ops.c, m, entries, rows);
    Matrix<TCD> ref(a_rows.rows(), n);
    if (tiled) {
        scalarTiledMatrixCoreGemm<TCD, TAB, TAcc>(
            *plan.inst, config.alpha, a_rows, ops.b, config.beta, c_rows,
            ref);
    } else {
        scalarReferenceGemm<TCD, TAB, TAcc>(config.alpha, a_rows, ops.b,
                                            config.beta, c_rows, ref,
                                            round_each_step);
    }

    VerifyResult result;
    result.usedMatrixCores = tiled;
    result.batchEntries = entries;
    compareSampledRows(d.data(), ref.data(), m, n, entries, rows, result);
    // The paper scheme's closed form, in the kernel's own arithmetic:
    // A = ones times B = I puts exactly (j < k) in the accumulator,
    // then alpha/beta apply in TAcc and D narrows once to TCD.
    if (scheme == VerifyScheme::PaperOnesIdentity) {
        const TAcc alpha_acc = static_cast<TAcc>(config.alpha);
        const TAcc beta_acc = static_cast<TAcc>(config.beta);
        for (std::size_t r = 0; r < entries * m; ++r) {
            for (std::size_t j = 0; j < n; ++j) {
                const TAcc hit = j < k ? TAcc(1) : TAcc(0);
                const TCD want = TCD(
                    alpha_acc * hit +
                    beta_acc * static_cast<TAcc>(
                                   fp::NumericTraits<TCD>::widen(
                                       ops.c(r, j))));
                checkElement(result, d(r, j), want, r % m, j);
            }
        }
    }
    finish(result, config, scheme, rows.size());
    return result;
}

/**
 * The quantized INT8 combo: integer accumulation is exact and the
 * requantize rounding is shared code, so the fast path must reproduce
 * scalarQuantizedGemm bit for bit on the sampled rows
 * (docs/PERF.md "Integer kernels"). The plan's Matrix Core decision
 * only drives the *simulated* execution; host verification always
 * exercises the functional fast path.
 */
VerifyResult
runI8(const GemmConfig &config, const GemmPlan &plan, VerifyScheme scheme,
      std::uint64_t seed, const FunctionalGemmOptions &func,
      std::size_t entries)
{
    const std::size_t m = config.m, n = config.n, k = config.k;
    const std::size_t sa = m * k, sc = m * n;
    const QuantParams &qp = config.quant;
    const Operands<std::int8_t, std::int8_t> ops(config, entries, scheme,
                                                 seed);

    Matrix<std::int8_t> d(entries * m, n);
    fastBatchedQuantizedGemm(entries, config.alpha, ops.a.data(), sa,
                             ops.b.data(), 0, config.beta, ops.c.data(),
                             sc, d.data(), sc, m, n, k, qp, func);

    const std::vector<std::size_t> rows = verifySampleRows(
        m, resolveFunctionalOptions(func, GemmCombo::I8gemm, n).blockM,
        seed);
    const Matrix<std::int8_t> a_rows = gatherRows(ops.a, m, entries, rows);
    const Matrix<std::int8_t> c_rows = gatherRows(ops.c, m, entries, rows);
    Matrix<std::int8_t> ref(a_rows.rows(), n);
    scalarQuantizedGemm(config.alpha, a_rows, ops.b, config.beta, c_rows,
                        ref, qp);

    VerifyResult result;
    result.usedMatrixCores = plan.useMatrixCores;
    result.batchEntries = entries;
    compareSampledRows(d.data(), ref.data(), m, n, entries, rows, result);
    // The paper scheme has a closed-form accumulator: with A all-ones
    // and B the identity, acc(i,j) = (1 - zeroA) * ((j < k) - k*zeroB),
    // so the expected output is one requantize call away.
    if (scheme == VerifyScheme::PaperOnesIdentity) {
        const double eff = effectiveQuantScale(config.alpha, qp);
        for (std::size_t r = 0; r < entries * m; ++r) {
            for (std::size_t j = 0; j < n; ++j) {
                const std::int32_t hit = (j < k) ? 1 : 0;
                const std::int32_t acc =
                    (1 - qp.zeroA) *
                    (hit - static_cast<std::int32_t>(k) * qp.zeroB);
                checkElement(result, d(r, j),
                             requantizeI8(acc, eff, config.beta,
                                          ops.c(r, j), qp),
                             r % m, j);
            }
        }
    }
    finish(result, config, scheme, rows.size());
    return result;
}

} // namespace

int
randomSchemeI8HalfWidth(std::size_t k, double eff_scale)
{
    // A uniform draw on [-r, r] has variance about r^2 / 3, so the
    // accumulator sum_k a*b has a standard deviation of about
    // (r^2 / 3) * sqrt(k); aim the output's at 40 of the 127.
    const double depth = static_cast<double>(std::max<std::size_t>(k, 1));
    const double r2 = 3.0 * 40.0 / (std::abs(eff_scale) * std::sqrt(depth));
    if (!(r2 < 127.0 * 127.0))
        return 127;
    return std::max(1, static_cast<int>(std::lround(std::sqrt(r2))));
}

std::vector<std::size_t>
verifySampleRows(std::size_t m, std::size_t block_m, std::uint64_t seed)
{
    std::vector<std::size_t> rows(std::min(m, kVerifySampleRows));
    if (m <= kVerifySampleRows) {
        std::iota(rows.begin(), rows.end(), std::size_t{0});
        return rows;
    }
    block_m = std::clamp<std::size_t>(block_m, 1, m);
    rows = {0, block_m - 1, (m - 1) / block_m * block_m, m - 1};
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    Rng rng(seed ^ 0x73616d706c65ull); // "sample"
    while (rows.size() < kVerifySampleRows) {
        const std::size_t pick = rng.nextBelow(m);
        if (std::find(rows.begin(), rows.end(), pick) == rows.end())
            rows.push_back(pick);
    }
    std::sort(rows.begin(), rows.end());
    return rows;
}

template <typename TCD>
void
compareSampledRows(const TCD *d, const TCD *ref, std::size_t m,
                   std::size_t n, std::size_t entries,
                   const std::vector<std::size_t> &rows,
                   VerifyResult &result)
{
    for (std::size_t e = 0; e < entries; ++e) {
        for (std::size_t s = 0; s < rows.size(); ++s) {
            const TCD *got = d + (e * m + rows[s]) * n;
            const TCD *want = ref + (e * rows.size() + s) * n;
            for (std::size_t j = 0; j < n; ++j)
                checkElement(result, got[j], want[j], rows[s], j);
        }
    }
    result.passed = result.mismatches == 0;
}

template void compareSampledRows<float>(const float *, const float *,
                                        std::size_t, std::size_t,
                                        std::size_t,
                                        const std::vector<std::size_t> &,
                                        VerifyResult &);
template void compareSampledRows<double>(const double *, const double *,
                                         std::size_t, std::size_t,
                                         std::size_t,
                                         const std::vector<std::size_t> &,
                                         VerifyResult &);
template void compareSampledRows<fp::Half>(
    const fp::Half *, const fp::Half *, std::size_t, std::size_t,
    std::size_t, const std::vector<std::size_t> &, VerifyResult &);
template void compareSampledRows<std::int8_t>(
    const std::int8_t *, const std::int8_t *, std::size_t, std::size_t,
    std::size_t, const std::vector<std::size_t> &, VerifyResult &);

VerifyResult
verifyGemm(const GemmConfig &config, VerifyScheme scheme,
           std::uint64_t seed, const PlannerOptions &opts,
           const FunctionalGemmOptions &func)
{
    // Batched problems verify a capped number of distinct entries
    // through the strided-batched drivers (batch counts reach 1024 in
    // the sweeps; checking them all would multiply the O(n^3) host
    // cost for no added path coverage).
    const std::size_t entries =
        config.batchCount > 1
            ? std::min<std::size_t>(config.batchCount,
                                    kMaxVerifyBatchEntries)
            : 1;
    // The blocked backend makes N = 4096 (2^36 multiply-adds)
    // practical; the cap only guards against accidentally feeding a
    // 65536-class sweep point into an O(n^3) host check.
    mc_assert(config.m * config.n * config.k * entries <= (1ull << 37),
              "verifyGemm is a host-side O(n^3) check; problem too "
              "large");
    const GemmPlan plan = planGemm(config, arch::defaultCdna2(), opts);

    return visitCombo(config.combo, [&](auto types) {
        using T = decltype(types);
        if constexpr (T::quantized) {
            return runI8(config, plan, scheme, seed, func, entries);
        } else {
            return runTyped<typename T::TCD, typename T::TAB,
                            typename T::TAcc>(config, plan, scheme, seed,
                                              T::roundEachStep, func,
                                              entries);
        }
    });
}

} // namespace blas
} // namespace mc
