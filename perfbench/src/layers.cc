#include "layers.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "arch/calibration.hh"
#include "blas/batched_gemm.hh"
#include "blas/functional.hh"
#include "blas/int8_gemm.hh"
#include "blas/pack_cache.hh"
#include "blas/tiling.hh"
#include "blas/verify.hh"
#include "common/json.hh"
#include "serve/protocol.hh"
#include "stats.hh"
#include "trace.hh"

namespace perfbench {

using namespace mc;
using blas::GemmCombo;

namespace {

/** Pack-cache hits would time a warm re-run, not the computation; the
 *  probes switch the cache off and restore it on exit. */
class PackCacheOff
{
  public:
    PackCacheOff() : _was(blas::PackCache::enabled())
    {
        blas::PackCache::setEnabled(false);
    }
    ~PackCacheOff() { blas::PackCache::setEnabled(_was); }
    PackCacheOff(const PackCacheOff &) = delete;
    PackCacheOff &operator=(const PackCacheOff &) = delete;

  private:
    bool _was;
};

template <typename T>
void
fillPattern(T *data, std::size_t count, std::uint64_t seed)
{
    Rng rng(seed);
    for (std::size_t i = 0; i < count; ++i)
        data[i] = T(static_cast<float>(rng.uniform() * 2.0 - 1.0));
}

template <>
void
fillPattern<std::int8_t>(std::int8_t *data, std::size_t count,
                         std::uint64_t seed)
{
    Rng rng(seed);
    for (std::size_t i = 0; i < count; ++i)
        data[i] = static_cast<std::int8_t>(static_cast<int>(rng.below(256)) - 128);
}

double
msSince(double start_us)
{
    return (nowUs() - start_us) * 1e-3;
}

/** Operands of one (possibly batched) problem; B is shared (stride 0),
 *  the convention the batched verification uses. */
template <typename TCD, typename TAB>
struct Operands
{
    std::size_t m, n, k, entries;
    std::vector<TAB> a;
    Matrix<TAB> b;
    std::vector<TCD> c, d;

    Operands(std::size_t m_, std::size_t n_, std::size_t k_, std::size_t e)
        : m(m_), n(n_), k(k_), entries(e), a(e * m_ * k_), b(k_, n_),
          c(e * m_ * n_), d(e * m_ * n_)
    {
        fillPattern(a.data(), a.size(), 1);
        fillPattern(b.data(), b.size(), 2);
        fillPattern(c.data(), c.size(), 3);
    }

    Matrix<TAB> entryA(std::size_t e) const
    {
        Matrix<TAB> out(m, k);
        std::copy_n(a.data() + e * m * k, m * k, out.data());
        return out;
    }
    Matrix<TCD> entryC(std::size_t e) const
    {
        Matrix<TCD> out(m, n);
        std::copy_n(c.data() + e * m * n, m * n, out.data());
        return out;
    }
};

/** Fast path of a float combo, as verifyGemm runs it. */
template <typename TCD, typename TAB, typename TAcc>
double
timeFloatFast(Operands<TCD, TAB> &ops, const blas::GemmConfig &cfg,
              const blas::GemmPlan &plan, bool round,
              const blas::FunctionalGemmOptions &func)
{
    const std::size_t sa = ops.m * ops.k, sc = ops.m * ops.n;
    if (ops.entries > 1) {
        const double t0 = nowUs();
        if (plan.useMatrixCores)
            blas::fastBatchedTiledMatrixCoreGemm<TCD, TAB, TAcc>(
                *plan.inst, ops.entries, cfg.alpha, ops.a.data(), sa,
                ops.b.data(), 0, cfg.beta, ops.c.data(), sc, ops.d.data(),
                sc, ops.m, ops.n, ops.k, func);
        else
            blas::fastBatchedGemm<TCD, TAB, TAcc>(
                ops.entries, cfg.alpha, ops.a.data(), sa, ops.b.data(), 0,
                cfg.beta, ops.c.data(), sc, ops.d.data(), sc, ops.m, ops.n,
                ops.k, round, func);
        return msSince(t0);
    }
    const Matrix<TAB> a = ops.entryA(0);
    const Matrix<TCD> c = ops.entryC(0);
    Matrix<TCD> d(ops.m, ops.n);
    const double t0 = nowUs();
    if (plan.useMatrixCores)
        blas::tiledMatrixCoreGemm<TCD, TAB, TAcc>(*plan.inst, cfg.alpha, a,
                                                  ops.b, cfg.beta, c, d, func);
    else
        blas::referenceGemm<TCD, TAB, TAcc>(cfg.alpha, a, ops.b, cfg.beta,
                                            c, d, round, func);
    return msSince(t0);
}

template <typename TCD, typename TAB, typename TAcc>
VerifySplit
retimeFloat(const blas::GemmConfig &cfg, bool round,
            const blas::FunctionalGemmOptions &func, std::size_t entries)
{
    const blas::GemmPlan plan = blas::planGemm(cfg, arch::defaultCdna2());
    Operands<TCD, TAB> ops(cfg.m, cfg.n, cfg.k, entries);
    VerifySplit out;
    Matrix<TCD> d(cfg.m, cfg.n);
    for (std::size_t e = 0; e < entries; ++e) {
        const Matrix<TAB> a = ops.entryA(e);
        const Matrix<TCD> c = ops.entryC(e);
        const double t0 = nowUs();
        blas::referenceGemm<TCD, TAB, TAcc>(cfg.alpha, a, ops.b, cfg.beta, c,
                                            d, round, func);
        out.refMs += msSince(t0);
    }
    out.gemmMs = timeFloatFast<TCD, TAB, TAcc>(ops, cfg, plan, round, func);
    return out;
}

VerifySplit
retimeI8(const blas::GemmConfig &cfg, const blas::FunctionalGemmOptions &func,
         std::size_t entries)
{
    Operands<std::int8_t, std::int8_t> ops(cfg.m, cfg.n, cfg.k, entries);
    VerifySplit out;
    Matrix<std::int8_t> d(cfg.m, cfg.n);
    for (std::size_t e = 0; e < entries; ++e) {
        const auto a = ops.entryA(e);
        const auto c = ops.entryC(e);
        const double t0 = nowUs();
        blas::scalarQuantizedGemm(cfg.alpha, a, ops.b, cfg.beta, c, d,
                                  cfg.quant);
        out.refMs += msSince(t0);
    }
    const std::size_t sa = cfg.m * cfg.k, sc = cfg.m * cfg.n;
    const double t0 = nowUs();
    if (entries > 1) {
        blas::fastBatchedQuantizedGemm(entries, cfg.alpha, ops.a.data(), sa,
                                       ops.b.data(), 0, cfg.beta,
                                       ops.c.data(), sc, ops.d.data(), sc,
                                       cfg.m, cfg.n, cfg.k, cfg.quant, func);
    } else {
        const auto a = ops.entryA(0);
        const auto c = ops.entryC(0);
        blas::fastQuantizedGemm(cfg.alpha, a, ops.b, cfg.beta, c, d,
                                cfg.quant, func);
    }
    out.gemmMs = msSince(t0);
    return out;
}

} // namespace

VerifySplit
retimeVerify(const blas::GemmConfig &config,
             const blas::FunctionalGemmOptions &func)
{
    PackCacheOff off;
    const std::size_t entries =
        std::min<std::size_t>(config.batchCount, blas::kMaxVerifyBatchEntries);
    switch (config.combo) {
      case GemmCombo::Dgemm:
        return retimeFloat<double, double, double>(config, false, func, entries);
      case GemmCombo::Sgemm:
        return retimeFloat<float, float, float>(config, false, func, entries);
      case GemmCombo::Hgemm:
        return retimeFloat<fp::Half, fp::Half, float>(config, true, func,
                                                      entries);
      case GemmCombo::Hhs:
        return retimeFloat<fp::Half, fp::Half, float>(config, false, func,
                                                      entries);
      case GemmCombo::Hss:
        return retimeFloat<float, fp::Half, float>(config, false, func,
                                                   entries);
      case GemmCombo::I8gemm:
        return retimeI8(config, func, entries);
    }
    return {};
}

double
fastGemmGflops(GemmCombo combo, std::size_t n, int threads, int reps)
{
    blas::GemmConfig cfg;
    cfg.combo = combo;
    cfg.m = cfg.n = cfg.k = n;
    cfg.alpha = 1.0;
    cfg.beta = 0.5;
    blas::FunctionalGemmOptions func;
    func.threads = threads;
    PackCacheOff off;
    double best_ms = 0.0;
    for (int r = 0; r < reps; ++r) {
        double ms = 0.0;
        switch (combo) {
          case GemmCombo::Dgemm: {
            Operands<double, double> ops(n, n, n, 1);
            ms = timeFloatFast<double, double, double>(
                ops, cfg, blas::planGemm(cfg, arch::defaultCdna2()), false,
                func);
            break;
          }
          case GemmCombo::Sgemm: {
            Operands<float, float> ops(n, n, n, 1);
            ms = timeFloatFast<float, float, float>(
                ops, cfg, blas::planGemm(cfg, arch::defaultCdna2()), false,
                func);
            break;
          }
          case GemmCombo::Hgemm:
          case GemmCombo::Hhs: {
            Operands<fp::Half, fp::Half> ops(n, n, n, 1);
            ms = timeFloatFast<fp::Half, fp::Half, float>(
                ops, cfg, blas::planGemm(cfg, arch::defaultCdna2()),
                combo == GemmCombo::Hgemm, func);
            break;
          }
          case GemmCombo::Hss: {
            Operands<float, fp::Half> ops(n, n, n, 1);
            ms = timeFloatFast<float, fp::Half, float>(
                ops, cfg, blas::planGemm(cfg, arch::defaultCdna2()), false,
                func);
            break;
          }
          case GemmCombo::I8gemm: {
            Operands<std::int8_t, std::int8_t> ops(n, n, n, 1);
            const auto a = ops.entryA(0);
            const auto c = ops.entryC(0);
            Matrix<std::int8_t> d(n, n);
            const double t0 = nowUs();
            blas::fastQuantizedGemm(cfg.alpha, a, ops.b, cfg.beta, c, d,
                                    cfg.quant, func);
            ms = msSince(t0);
            break;
          }
        }
        if (r == 0 || ms < best_ms)
            best_ms = ms;
    }
    const double flops = 2.0 * static_cast<double>(n) * static_cast<double>(n) *
                         static_cast<double>(n);
    return flops / (best_ms * 1e-3) * 1e-9;
}

ProtocolTimes
protocolTimes(const std::vector<std::string> &frames,
              const std::vector<std::string> &responses)
{
    ProtocolTimes out;
    std::vector<serve::ServeRequest> parsed;
    double t0 = nowUs();
    for (const std::string &f : frames) {
        auto r = serve::parseRequest(f);
        if (r.isOk())
            parsed.push_back(std::move(r.value()));
    }
    if (!frames.empty())
        out.parseUs = (nowUs() - t0) / static_cast<double>(frames.size());

    std::size_t key_bytes = 0;
    t0 = nowUs();
    for (const auto &req : parsed)
        key_bytes += serve::canonicalKey(req).size();
    if (!parsed.empty() && key_bytes > 0)
        out.keyUs = (nowUs() - t0) / static_cast<double>(parsed.size());

    std::vector<JsonValue> payloads;
    for (const std::string &r : responses) {
        auto env = serve::parseResponse(r);
        if (env.isOk() && env.value().code == ErrorCode::Ok)
            payloads.push_back(env.value().payload);
    }
    std::size_t bytes = 0;
    t0 = nowUs();
    for (std::size_t i = 0; i < payloads.size(); ++i)
        bytes += serve::okResponse("r" + std::to_string(i), payloads[i]).size();
    if (!payloads.empty() && bytes > 0)
        out.serializeUs = (nowUs() - t0) / static_cast<double>(payloads.size());

    int fds[2];
    if (!responses.empty() &&
        ::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) == 0) {
        const std::size_t trips = std::min<std::size_t>(responses.size(), 2000);
        t0 = nowUs();
        std::size_t ok = 0;
        for (std::size_t i = 0; i < trips; ++i) {
            const std::string &msg = responses[i];
            if (!serve::writeFrame(fds[0], msg).isOk())
                break;
            auto there = serve::readFrame(fds[1]);
            if (!there.isOk() || !there.value() ||
                !serve::writeFrame(fds[1], *there.value()).isOk())
                break;
            auto back = serve::readFrame(fds[0]);
            if (!back.isOk() || !back.value() || *back.value() != msg)
                break;
            ++ok;
        }
        if (ok > 0)
            out.frameUs = (nowUs() - t0) / static_cast<double>(ok);
        ::close(fds[0]);
        ::close(fds[1]);
    }
    return out;
}

} // namespace perfbench
