#include "verify.hh"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "blas/batched_gemm.hh"
#include "blas/functional.hh"
#include "blas/int8_gemm.hh"
#include "common/logging.hh"
#include "common/random.hh"

namespace mc {
namespace blas {

namespace {

/** Per-combo tolerance: storage precision drives the bound. */
double
toleranceFor(GemmCombo combo, std::size_t k)
{
    const double growth = std::sqrt(static_cast<double>(k));
    switch (combo) {
      case GemmCombo::Dgemm: return 1e-12 * growth;
      case GemmCombo::Sgemm: return 1e-5 * growth;
      case GemmCombo::Hss: return 2e-3 * growth;
      case GemmCombo::Hhs: return 5e-3 * growth;
      case GemmCombo::Hgemm: return 1e-2 * growth;
      case GemmCombo::I8gemm: return 0.0; // exact-match contract
    }
    return 1e-3 * growth;
}

template <typename T>
void
fillScheme(Matrix<T> &m, VerifyScheme scheme, bool identity, Rng &rng)
{
    if (scheme == VerifyScheme::PaperOnesIdentity) {
        if (identity)
            m.setIdentity();
        else
            m.fill(T(1.0f));
        return;
    }
    for (std::size_t i = 0; i < m.rows(); ++i)
        for (std::size_t j = 0; j < m.cols(); ++j)
            m(i, j) = T(static_cast<float>(rng.uniform(-1.0, 1.0)));
}

/**
 * Run one combo functionally: build operands, execute through the
 * engine-selected path, compare against the reference computation.
 */
template <typename TCD, typename TAB, typename TAcc>
VerifyResult
runTyped(const GemmConfig &config, const GemmPlan &plan,
         VerifyScheme scheme, std::uint64_t seed, bool round_each_step,
         const FunctionalGemmOptions &func)
{
    Rng rng(seed);
    Matrix<TAB> a(config.m, config.k);
    Matrix<TAB> b(config.k, config.n);
    Matrix<TCD> c(config.m, config.n);
    fillScheme(a, scheme, false, rng);
    fillScheme(b, scheme, true, rng);
    fillScheme(c, scheme, false, rng);

    Matrix<TCD> d_ref(config.m, config.n);
    referenceGemm<TCD, TAB, TAcc>(config.alpha, a, b, config.beta, c,
                                  d_ref, round_each_step, func);

    Matrix<TCD> d_run(config.m, config.n);
    if (plan.useMatrixCores) {
        tiledMatrixCoreGemm<TCD, TAB, TAcc>(*plan.inst, config.alpha, a,
                                            b, config.beta, c, d_run,
                                            func);
    } else {
        // The SIMD path is the reference computation itself; re-run it
        // so path selection is still exercised end to end.
        referenceGemm<TCD, TAB, TAcc>(config.alpha, a, b, config.beta,
                                      c, d_run, round_each_step, func);
    }

    VerifyResult result;
    result.usedMatrixCores = plan.useMatrixCores;
    result.tolerance = toleranceFor(config.combo, config.k);
    auto record = [&result](double got, double want, std::uint64_t ulp,
                            std::size_t i, std::size_t j) {
        const double err = std::fabs(got - want);
        if (err > result.maxAbsError) {
            result.maxAbsError = err;
            result.errorRow = i;
            result.errorCol = j;
        }
        result.maxUlp = std::max(result.maxUlp, ulp);
    };
    for (std::size_t i = 0; i < config.m; ++i) {
        for (std::size_t j = 0; j < config.n; ++j) {
            const double got = static_cast<double>(
                fp::NumericTraits<TCD>::widen(d_run(i, j)));
            const double want = static_cast<double>(
                fp::NumericTraits<TCD>::widen(d_ref(i, j)));
            record(got, want, fp::ulpDistance(d_run(i, j), d_ref(i, j)),
                   i, j);
        }
    }

    // The paper's scheme has a closed-form expectation: check it too.
    if (scheme == VerifyScheme::PaperOnesIdentity) {
        const double expect = config.alpha + config.beta;
        for (std::size_t i = 0; i < config.m; ++i) {
            // D = alpha*A*B + beta*C = alpha*(ones x I) + beta*ones;
            // only the leading min(k, n) columns receive the A*B term.
            for (std::size_t j = 0; j < config.n; ++j) {
                const double want =
                    (j < config.k) ? expect : config.beta;
                const TCD want_cd = TCD(want);
                const double got = static_cast<double>(
                    fp::NumericTraits<TCD>::widen(d_run(i, j)));
                record(got, want, fp::ulpDistance(d_run(i, j), want_cd),
                       i, j);
            }
        }
    }

    result.passed = result.maxAbsError <= result.tolerance;
    std::ostringstream detail;
    detail << comboInfo(config.combo).name << " " << config.m << "x"
           << config.n << "x" << config.k << " via "
           << (plan.useMatrixCores ? "MatrixCore" : "SIMD")
           << " path: max |err| = " << result.maxAbsError << " at ("
           << result.errorRow << ", " << result.errorCol << "), max ULP = ";
    if (result.maxUlp == fp::kUlpNan)
        detail << "NaN";
    else
        detail << result.maxUlp;
    detail << " (tol " << result.tolerance << ")";
    result.detail = detail.str();
    return result;
}

/**
 * The quantized INT8 combo verifies to *zero* tolerance: integer
 * accumulation is exact and the requantize rounding is shared code,
 * so the fast path must reproduce the scalar reference bit for bit
 * (docs/PERF.md "Integer kernels"). Any nonzero difference fails.
 */
VerifyResult
runI8(const GemmConfig &config, const GemmPlan &plan, VerifyScheme scheme,
      std::uint64_t seed, const FunctionalGemmOptions &func)
{
    Rng rng(seed);
    Matrix<std::int8_t> a(config.m, config.k);
    Matrix<std::int8_t> b(config.k, config.n);
    Matrix<std::int8_t> c(config.m, config.n);
    auto fill = [&](Matrix<std::int8_t> &m, bool identity) {
        if (scheme == VerifyScheme::PaperOnesIdentity) {
            if (identity)
                m.setIdentity();
            else
                m.fill(std::int8_t{1});
            return;
        }
        for (std::size_t i = 0; i < m.rows(); ++i)
            for (std::size_t j = 0; j < m.cols(); ++j)
                m(i, j) = static_cast<std::int8_t>(
                    std::lround(rng.uniform(-128.0, 127.0)));
    };
    fill(a, false);
    fill(b, true);
    fill(c, false);

    const QuantParams &qp = config.quant;
    Matrix<std::int8_t> d_ref(config.m, config.n);
    scalarQuantizedGemm(config.alpha, a, b, config.beta, c, d_ref, qp);
    // The plan's Matrix Core decision only drives the *simulated*
    // execution; host verification always exercises the functional
    // fast path against the scalar reference.
    Matrix<std::int8_t> d_run(config.m, config.n);
    fastQuantizedGemm(config.alpha, a, b, config.beta, c, d_run, qp,
                      func);

    VerifyResult result;
    result.usedMatrixCores = plan.useMatrixCores;
    result.tolerance = 0.0;
    auto record = [&result](std::int8_t got, std::int8_t want,
                            std::size_t i, std::size_t j) {
        const double err = std::fabs(static_cast<double>(got) -
                                     static_cast<double>(want));
        if (err > result.maxAbsError) {
            result.maxAbsError = err;
            result.errorRow = i;
            result.errorCol = j;
        }
        result.maxUlp =
            std::max(result.maxUlp, static_cast<std::uint64_t>(err));
    };
    for (std::size_t i = 0; i < config.m; ++i)
        for (std::size_t j = 0; j < config.n; ++j)
            record(d_run(i, j), d_ref(i, j), i, j);

    // The paper scheme has a closed-form accumulator: with A all-ones
    // and B the identity, acc(i,j) = (1 - zeroA)*((j < k) - k*zeroB),
    // so the expected output is one requantize call away.
    if (scheme == VerifyScheme::PaperOnesIdentity) {
        const double eff = effectiveQuantScale(config.alpha, qp);
        for (std::size_t i = 0; i < config.m; ++i) {
            for (std::size_t j = 0; j < config.n; ++j) {
                const std::int32_t hit = (j < config.k) ? 1 : 0;
                const std::int32_t acc =
                    (1 - qp.zeroA) *
                    (hit - static_cast<std::int32_t>(config.k) * qp.zeroB);
                const std::int8_t want = requantizeI8(
                    acc, eff, config.beta, std::int8_t{1}, qp);
                record(d_run(i, j), want, i, j);
            }
        }
    }

    result.passed = result.maxAbsError == 0.0;
    std::ostringstream detail;
    detail << comboInfo(config.combo).name << " " << config.m << "x"
           << config.n << "x" << config.k << " via "
           << (plan.useMatrixCores ? "MatrixCore" : "SIMD")
           << " path: exact-match check, max |err| = "
           << result.maxAbsError << " at (" << result.errorRow << ", "
           << result.errorCol << ") (tol 0)";
    result.detail = detail.str();
    return result;
}

/**
 * Batched verification: @p entries distinct (A, C) slices against a
 * shared stride-0 B (the broadcast-weights convention of the batched
 * extension study), executed through the strided-batched drivers and
 * checked per entry against the per-call reference path.
 */
template <typename TCD, typename TAB, typename TAcc>
VerifyResult
runTypedBatched(const GemmConfig &config, const GemmPlan &plan,
                VerifyScheme scheme, std::uint64_t seed,
                bool round_each_step, const FunctionalGemmOptions &func,
                std::size_t entries)
{
    const std::size_t m = config.m, n = config.n, k = config.k;
    const std::size_t sa = m * k, sc = m * n;
    Rng rng(seed);

    Matrix<TAB> b(k, n);
    fillScheme(b, scheme, true, rng);
    std::vector<TAB> abuf(entries * sa);
    std::vector<TCD> cbuf(entries * sc);
    std::vector<TCD> dref(entries * sc);
    Matrix<TAB> ae(m, k);
    Matrix<TCD> ce(m, n), de(m, n);
    for (std::size_t e = 0; e < entries; ++e) {
        fillScheme(ae, scheme, false, rng);
        fillScheme(ce, scheme, false, rng);
        std::copy_n(ae.data(), sa, abuf.data() + e * sa);
        std::copy_n(ce.data(), sc, cbuf.data() + e * sc);
        referenceGemm<TCD, TAB, TAcc>(config.alpha, ae, b, config.beta,
                                      ce, de, round_each_step, func);
        std::copy_n(de.data(), sc, dref.data() + e * sc);
    }

    std::vector<TCD> drun(entries * sc);
    if (func.forceScalar) {
        // forceScalar pins every path to the scalar loops; the batched
        // drivers are fast-path-only, so replay per entry instead.
        for (std::size_t e = 0; e < entries; ++e) {
            std::copy_n(abuf.data() + e * sa, sa, ae.data());
            std::copy_n(cbuf.data() + e * sc, sc, ce.data());
            referenceGemm<TCD, TAB, TAcc>(config.alpha, ae, b,
                                          config.beta, ce, de,
                                          round_each_step, func);
            std::copy_n(de.data(), sc, drun.data() + e * sc);
        }
    } else if (plan.useMatrixCores) {
        fastBatchedTiledMatrixCoreGemm<TCD, TAB, TAcc>(
            *plan.inst, entries, config.alpha, abuf.data(), sa, b.data(),
            0, config.beta, cbuf.data(), sc, drun.data(), sc, m, n, k,
            func);
    } else {
        fastBatchedGemm<TCD, TAB, TAcc>(
            entries, config.alpha, abuf.data(), sa, b.data(), 0,
            config.beta, cbuf.data(), sc, drun.data(), sc, m, n, k,
            round_each_step, func);
    }

    VerifyResult result;
    result.usedMatrixCores = plan.useMatrixCores && !func.forceScalar;
    result.batchEntries = entries;
    result.tolerance = toleranceFor(config.combo, k);
    auto record = [&result](double got, double want, std::uint64_t ulp,
                            std::size_t i, std::size_t j) {
        const double err = std::fabs(got - want);
        if (err > result.maxAbsError) {
            result.maxAbsError = err;
            result.errorRow = i;
            result.errorCol = j;
        }
        result.maxUlp = std::max(result.maxUlp, ulp);
    };
    const double expect = config.alpha + config.beta;
    for (std::size_t e = 0; e < entries; ++e) {
        for (std::size_t i = 0; i < m; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                const TCD got_cd = drun[e * sc + i * n + j];
                const TCD ref_cd = dref[e * sc + i * n + j];
                const double got = static_cast<double>(
                    fp::NumericTraits<TCD>::widen(got_cd));
                record(got,
                       static_cast<double>(
                           fp::NumericTraits<TCD>::widen(ref_cd)),
                       fp::ulpDistance(got_cd, ref_cd), i, j);
                if (scheme == VerifyScheme::PaperOnesIdentity) {
                    // Same closed form as the single-entry check; every
                    // entry carries identical paper-scheme operands.
                    const double want = (j < k) ? expect : config.beta;
                    record(got, want,
                           fp::ulpDistance(got_cd, TCD(want)), i, j);
                }
            }
        }
    }

    result.passed = result.maxAbsError <= result.tolerance;
    std::ostringstream detail;
    detail << comboInfo(config.combo).name << " " << m << "x" << n << "x"
           << k << " batch " << entries << " (of " << config.batchCount
           << ") via "
           << (result.usedMatrixCores ? "MatrixCore" : "SIMD")
           << " strided-batched path: max |err| = " << result.maxAbsError
           << " at (" << result.errorRow << ", " << result.errorCol
           << "), max ULP = ";
    if (result.maxUlp == fp::kUlpNan)
        detail << "NaN";
    else
        detail << result.maxUlp;
    detail << " (tol " << result.tolerance << ")";
    result.detail = detail.str();
    return result;
}

/** Batched INT8 verification: exact-match per entry against the scalar
 *  reference, run through fastBatchedQuantizedGemm with shared B. */
VerifyResult
runI8Batched(const GemmConfig &config, const GemmPlan &plan,
             VerifyScheme scheme, std::uint64_t seed,
             const FunctionalGemmOptions &func, std::size_t entries)
{
    const std::size_t m = config.m, n = config.n, k = config.k;
    const std::size_t sa = m * k, sc = m * n;
    Rng rng(seed);
    auto fill = [&](Matrix<std::int8_t> &mat, bool identity) {
        if (scheme == VerifyScheme::PaperOnesIdentity) {
            if (identity)
                mat.setIdentity();
            else
                mat.fill(std::int8_t{1});
            return;
        }
        for (std::size_t i = 0; i < mat.rows(); ++i)
            for (std::size_t j = 0; j < mat.cols(); ++j)
                mat(i, j) = static_cast<std::int8_t>(
                    std::lround(rng.uniform(-128.0, 127.0)));
    };

    const QuantParams &qp = config.quant;
    Matrix<std::int8_t> b(k, n);
    fill(b, true);
    std::vector<std::int8_t> abuf(entries * sa);
    std::vector<std::int8_t> cbuf(entries * sc);
    std::vector<std::int8_t> dref(entries * sc);
    Matrix<std::int8_t> ae(m, k), ce(m, n), de(m, n);
    for (std::size_t e = 0; e < entries; ++e) {
        fill(ae, false);
        fill(ce, false);
        std::copy_n(ae.data(), sa, abuf.data() + e * sa);
        std::copy_n(ce.data(), sc, cbuf.data() + e * sc);
        scalarQuantizedGemm(config.alpha, ae, b, config.beta, ce, de, qp);
        std::copy_n(de.data(), sc, dref.data() + e * sc);
    }

    std::vector<std::int8_t> drun(entries * sc);
    fastBatchedQuantizedGemm(entries, config.alpha, abuf.data(), sa,
                             b.data(), 0, config.beta, cbuf.data(), sc,
                             drun.data(), sc, m, n, k, qp, func);

    VerifyResult result;
    result.usedMatrixCores = plan.useMatrixCores;
    result.batchEntries = entries;
    result.tolerance = 0.0;
    for (std::size_t e = 0; e < entries; ++e) {
        for (std::size_t i = 0; i < m; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                const double err = std::fabs(
                    static_cast<double>(drun[e * sc + i * n + j]) -
                    static_cast<double>(dref[e * sc + i * n + j]));
                if (err > result.maxAbsError) {
                    result.maxAbsError = err;
                    result.errorRow = i;
                    result.errorCol = j;
                }
                result.maxUlp = std::max(
                    result.maxUlp, static_cast<std::uint64_t>(err));
            }
        }
    }

    result.passed = result.maxAbsError == 0.0;
    std::ostringstream detail;
    detail << comboInfo(config.combo).name << " " << m << "x" << n << "x"
           << k << " batch " << entries << " (of " << config.batchCount
           << ") via "
           << (plan.useMatrixCores ? "MatrixCore" : "SIMD")
           << " strided-batched path: exact-match check, max |err| = "
           << result.maxAbsError << " at (" << result.errorRow << ", "
           << result.errorCol << ") (tol 0)";
    result.detail = detail.str();
    return result;
}

} // namespace

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
            return entries > 1 ? runI8Batched(config, plan, scheme, seed,
                                              func, entries)
                               : runI8(config, plan, scheme, seed, func);
        } else {
            using TCD = typename T::TCD;
            using TAB = typename T::TAB;
            using TAcc = typename T::TAcc;
            return entries > 1
                       ? runTypedBatched<TCD, TAB, TAcc>(
                             config, plan, scheme, seed, T::roundEachStep,
                             func, entries)
                       : runTyped<TCD, TAB, TAcc>(config, plan, scheme,
                                                  seed, T::roundEachStep,
                                                  func);
        }
    });
}

} // namespace blas
} // namespace mc
