/**
 * @file
 * The fast functional-GEMM backend: cache-blocked, operand-packing,
 * optionally multi-threaded numeric kernels that are *bit-identical*
 * to the scalar reference loops in functional.hh. Its one driver is
 * detail::batchedGemmImpl (batched_gemm.hh), which stages operands
 * through stageWidened and runs blockedGemmCore below; referenceGemm
 * and tiledMatrixCoreGemm are batches of one through it.
 *
 * The bit-exactness invariant, and why blocking preserves it
 * ----------------------------------------------------------
 * IEEE floating-point addition is not associative, so a classically
 * re-associated (multi-accumulator) dot product would change results.
 * This backend never re-associates: every output element (i, j) is
 * produced by ONE accumulator that receives the products
 * widen(a(i,kk)) * widen(b(kk,j)) in ascending-kk order — exactly the
 * scalar loop's order. Speed comes from everything *around* the sum:
 *
 *  - the j loop is innermost (an "axpy" update accs[j] += av * b[kk][j]
 *    across an output row panel), so consecutive iterations update
 *    independent accumulators and vectorize/pipeline instead of
 *    serializing on the FP-add latency chain;
 *  - A and B are widened to the accumulator type once up front
 *    (conversion is exact, so values are unchanged; for float/double
 *    operands the matrix storage is used in place) instead of widening
 *    and bounds-checking every element m*n*k times; the staged panels
 *    are reused across calls through the content-addressed PackCache
 *    and otherwise live in thread-local ScratchArena frames instead of
 *    per-call heap allocations (pack_cache.hh, scratch_arena.hh);
 *  - loops are blocked (blockM x blockN x blockK) so one B panel is
 *    served from cache for a whole block of output rows;
 *  - row blocks fan out across exec::sharedPool workers. Each (i, j)
 *    is computed wholly by one task, so results are independent of the
 *    thread count.
 *
 * The inner kernels are reached through a runtime-dispatched table of
 * explicit-SIMD micro-kernels (simd_kernels.hh): scalar -> SSE2 ->
 * AVX2 -> AVX-512 on x86-64, NEON on aarch64, selected per CPU at
 * startup and overridable via FunctionalGemmOptions::simd or the
 * MC_SIMD environment variable. Vector lanes widen over the j
 * dimension only — distinct j means distinct accumulators, so lane
 * parallelism never re-associates a sum. Every tier TU is compiled
 * with -ffp-contract=off and without FMA codegen flags, so mul and add
 * round separately per lane exactly like the retained scalar reference
 * (the "scalar" tier, instantiated -O3 in fast_gemm.cc), and every
 * tier is bit-identical to it; tests/blas/simd_tier_test.cc enforces
 * this with memcmp.
 */

#ifndef MC_BLAS_FAST_GEMM_HH
#define MC_BLAS_FAST_GEMM_HH

#include <algorithm>
#include <cstddef>
#include <memory>
#include <type_traits>

#include "blas/gemm_types.hh"
#include "blas/pack_cache.hh"
#include "blas/scratch_arena.hh"
#include "blas/simd_kernels.hh"
#include "common/logging.hh"
#include "exec/thread_pool.hh"
#include "fp/traits.hh"

namespace mc {
namespace blas {

/**
 * Resolve every auto (0) field of @p opts for one concrete problem:
 * block sizes and thread fan-out come from the active tuning artifact
 * entry for (combo, resolved SIMD tier, tuneBucket(n)) when one is
 * loaded (blas/tune.hh), and from the kDefaultBlock* constants
 * otherwise. Explicit (> 0) fields pass through untouched, and
 * MC_TUNE=off disables the artifact entirely. Results never depend on
 * the outcome — the knobs trade speed only. Defined in tune.cc.
 */
FunctionalGemmOptions resolveFunctionalOptions(
    const FunctionalGemmOptions &opts, GemmCombo combo, std::size_t n);

/** The Table III combo the (TCD, TAB, TAcc, rounding) template
 *  instantiation corresponds to — the tuning-artifact key of the
 *  functional kernels. */
template <typename TCD, typename TAB, typename TAcc>
constexpr GemmCombo
comboForTypes(bool round_each_step)
{
    if constexpr (std::is_same_v<TAcc, double>)
        return GemmCombo::Dgemm;
    else if constexpr (std::is_same_v<TAB, float>)
        return GemmCombo::Sgemm;
    else if constexpr (std::is_same_v<TCD, float>)
        return GemmCombo::Hss;
    else
        return round_each_step ? GemmCombo::Hgemm : GemmCombo::Hhs;
}

namespace detail {

/**
 * The hot kernel: accs[j] += arow[kk] * bpanel[kk * ldb + j] for
 * kk < nk, j < nj, kk ascending — the scalar reference's per-element
 * accumulation order with the j loop innermost.
 */
template <typename T>
void
axpyPanel(const T *arow, const T *bpanel, std::size_t ldb, std::size_t nk,
          T *accs, std::size_t nj)
{
    for (std::size_t kk = 0; kk < nk; ++kk) {
        const T av = arow[kk];
        const T *brow = bpanel + kk * ldb;
        for (std::size_t j = 0; j < nj; ++j)
            accs[j] += av * brow[j];
    }
}

/**
 * axpyPanel with the reduced-precision FMA-chain semantics: after
 * every multiply-add the accumulator is rounded to TNarrow and widened
 * back (referenceGemm's round_each_step — how HGEMM behaves on the
 * VALU path).
 */
template <typename TNarrow, typename TAcc>
void
axpyPanelRound(const TAcc *arow, const TAcc *bpanel, std::size_t ldb,
               std::size_t nk, TAcc *accs, std::size_t nj)
{
    for (std::size_t kk = 0; kk < nk; ++kk) {
        const TAcc av = arow[kk];
        const TAcc *brow = bpanel + kk * ldb;
        for (std::size_t j = 0; j < nj; ++j) {
            const TAcc acc = accs[j] + av * brow[j];
            accs[j] = static_cast<TAcc>(
                fp::NumericTraits<TNarrow>::widen(TNarrow(acc)));
        }
    }
}

// The instantiations the five datatype combos reach live in
// fast_gemm.cc, compiled -O3 so the j loops vectorize.
extern template void axpyPanel<float>(const float *, const float *,
                                      std::size_t, std::size_t, float *,
                                      std::size_t);
extern template void axpyPanel<double>(const double *, const double *,
                                       std::size_t, std::size_t, double *,
                                       std::size_t);
extern template void axpyPanelRound<fp::Half, float>(const float *,
                                                     const float *,
                                                     std::size_t,
                                                     std::size_t, float *,
                                                     std::size_t);

/**
 * The SIMD batch-widen kernel for TSrc -> float packing, or nullptr
 * when no such kernel applies (then the scalar per-element loop runs).
 * Half and BFloat16 are single-member standard-layout wrappers over
 * uint16_t, so their storage can be consumed as raw bit patterns.
 */
template <typename TSrc, typename TAcc>
SimdKernels::WidenFn
packWidenKernel(const SimdKernels &ker)
{
    if constexpr (std::is_same_v<TAcc, float>) {
        static_assert(!fp::isReducedFloat<TSrc> ||
                          (sizeof(TSrc) == sizeof(std::uint16_t) &&
                           std::is_standard_layout_v<TSrc>),
                      "reduced floats must be uint16_t wrappers");
        if constexpr (std::is_same_v<TSrc, fp::Half>)
            return ker.widenHalfToF32;
        else if constexpr (std::is_same_v<TSrc, fp::BFloat16>)
            return ker.widenBf16ToF32;
    }
    return nullptr;
}

/**
 * Row-major widened copy of @p in (rows x cols) into @p out with
 * columns zero-padded to @p padded_cols (the packed A layout).
 * Widening is exact, so values are bit-preserved; Half/BFloat16
 * sources go through @p ker's batch-widen kernels (bit-identical to
 * the scalar per-element widen).
 */
template <typename TSrc, typename TAcc>
void
widenPadColsInto(const TSrc *in, std::size_t rows, std::size_t cols,
                 std::size_t padded_cols, TAcc *out,
                 const SimdKernels &ker)
{
    if (padded_cols != cols)
        std::fill_n(out, rows * padded_cols, TAcc(0));
    if (const auto widen = packWidenKernel<TSrc, TAcc>(ker)) {
        const auto *bits = reinterpret_cast<const std::uint16_t *>(in);
        auto *fout = reinterpret_cast<float *>(out);
        if (padded_cols == cols) {
            widen(bits, fout, rows * cols);
        } else {
            for (std::size_t i = 0; i < rows; ++i)
                widen(bits + i * cols, fout + i * padded_cols, cols);
        }
        return;
    }
    for (std::size_t i = 0; i < rows; ++i) {
        TAcc *orow = out + i * padded_cols;
        for (std::size_t j = 0; j < cols; ++j)
            orow[j] = static_cast<TAcc>(
                fp::NumericTraits<TSrc>::widen(in[i * cols + j]));
    }
}

/**
 * Row-major widened copy of @p in (rows x cols) into @p out with zero
 * rows appended up to @p padded_rows (the packed B layout; B is
 * consumed row-wise so its native row-major layout already is the
 * packed layout).
 */
template <typename TSrc, typename TAcc>
void
widenPadRowsInto(const TSrc *in, std::size_t rows, std::size_t cols,
                 std::size_t padded_rows, TAcc *out,
                 const SimdKernels &ker)
{
    if (padded_rows != rows)
        std::fill_n(out + rows * cols, (padded_rows - rows) * cols,
                    TAcc(0));
    if (const auto widen = packWidenKernel<TSrc, TAcc>(ker)) {
        widen(reinterpret_cast<const std::uint16_t *>(in),
              reinterpret_cast<float *>(out), rows * cols);
        return;
    }
    for (std::size_t i = 0; i < rows * cols; ++i)
        out[i] = static_cast<TAcc>(fp::NumericTraits<TSrc>::widen(in[i]));
}

/**
 * Stage one operand into its packed/widened layout, reusing storage in
 * this order:
 *
 *  1. in place — TSrc already is TAcc and no padding is needed (the
 *     float/double fast path; neither the cache nor the fingerprint is
 *     touched, so plain SGEMM/DGEMM pays nothing for the cache);
 *  2. the process-wide PackCache — keyed by a CRC-32 fingerprint of
 *     the source bytes plus shape/type/tier/pad, so repeated-weight
 *     calls skip packing entirely (@p keep pins the entry across
 *     eviction for the duration of the call);
 *  3. the caller's thread-local scratch @p frame when the cache is off.
 *
 * Every path runs the same widenPad*Into routine, so the staged bytes
 * are identical however they were obtained — the backend's
 * bit-exactness contract extends to the cache by construction.
 *
 * @p kind selects the A (WidenA: @p pad pads columns) or B layout
 * (WidenB: @p pad pads rows).
 */
template <typename TSrc, typename TAcc>
const TAcc *
stageWidened(PackKind kind, const TSrc *src, std::size_t rows,
             std::size_t cols, std::size_t pad, const SimdKernels &ker,
             ScratchArena::Frame &frame,
             std::shared_ptr<const PackEntry> &keep)
{
    const bool for_a = kind == PackKind::WidenA;
    mc_assert(for_a ? pad >= cols : pad >= rows,
              "padding below the matrix extent");
    if constexpr (std::is_same_v<TSrc, TAcc>) {
        if (for_a ? pad == cols : pad == rows)
            return src;
    }
    const std::size_t elems = for_a ? rows * pad : pad * cols;
    const auto fill = [&](TAcc *out) {
        if (for_a)
            widenPadColsInto<TSrc, TAcc>(src, rows, cols, pad, out, ker);
        else
            widenPadRowsInto<TSrc, TAcc>(src, rows, cols, pad, out, ker);
    };
    if (PackCache::shouldCache(rows * cols * sizeof(TSrc))) {
        PackKey key;
        key.kind = kind;
        key.srcType = packTypeTag<TSrc>();
        key.accType = packTypeTag<TAcc>();
        key.tier = static_cast<std::uint8_t>(ker.tier);
        key.srcBytes = rows * cols * sizeof(TSrc);
        key.fingerprint =
            packFingerprint(src, static_cast<std::size_t>(key.srcBytes));
        key.rows = rows;
        key.cols = cols;
        key.pad = pad;
        keep = PackCache::instance().findOrPack(
            key, elems * sizeof(TAcc),
            [&](void *out) { fill(static_cast<TAcc *>(out)); });
        return keep->template as<TAcc>();
    }
    TAcc *out = frame.alloc<TAcc>(elems);
    fill(out);
    return out;
}

/**
 * The blocked driver shared by the reference and the tiled-Matrix-Core
 * entry points: D = TCD(alpha * sum_k(pa * pb) + beta * widen(C)) over
 * pre-widened operands, k ascending per element, row blocks fanned
 * across threads.
 */
template <typename TCD, typename TAcc>
void
blockedGemmCore(std::size_t m, std::size_t n, std::size_t k, double alpha,
                const TAcc *pa, std::size_t lda, const TAcc *pb,
                std::size_t ldb, double beta, const TCD *pc, TCD *pd,
                std::size_t ldcd, bool round_each_step,
                const FunctionalGemmOptions &opts)
{
    mc_assert(opts.blockM >= 1 && opts.blockN >= 1 && opts.blockK >= 1,
              "block sizes must be positive");
    const std::size_t bm = static_cast<std::size_t>(opts.blockM);
    const std::size_t bn = static_cast<std::size_t>(opts.blockN);
    const std::size_t bk = static_cast<std::size_t>(opts.blockK);
    const TAcc alpha_acc = static_cast<TAcc>(alpha);
    const TAcc beta_acc = static_cast<TAcc>(beta);
    // Per-step rounding is the identity when TCD and TAcc coincide.
    const bool rounding = round_each_step && !std::is_same_v<TCD, TAcc>;
    // Resolve the SIMD tier once; every worker uses the same kernels,
    // and every tier is bit-identical, so the choice never changes
    // results.
    const SimdKernels &ker = simdKernelsFor(opts.simd);

    exec::parallelChunks(m, bm, opts.threads, [&](std::size_t r0,
                                                  std::size_t r1) {
        const std::size_t rows = r1 - r0;
        ScratchArena::Frame frame;
        TAcc *acc = frame.alloc<TAcc>(rows * bn);
        for (std::size_t j0 = 0; j0 < n; j0 += bn) {
            const std::size_t nj = std::min(bn, n - j0);
            std::fill_n(acc, rows * bn, TAcc(0));
            for (std::size_t k0 = 0; k0 < k; k0 += bk) {
                const std::size_t nk = std::min(bk, k - k0);
                const TAcc *bpanel = pb + k0 * ldb + j0;
                for (std::size_t r = 0; r < rows; ++r) {
                    const TAcc *arow = pa + (r0 + r) * lda + k0;
                    TAcc *accs = acc + r * bn;
                    if (rounding) {
                        if constexpr (std::is_same_v<TCD, fp::Half> &&
                                      std::is_same_v<TAcc, float>)
                            ker.axpyRoundHalfF32(arow, bpanel, ldb, nk,
                                                 accs, nj);
                        else
                            axpyPanelRound<TCD, TAcc>(arow, bpanel, ldb,
                                                      nk, accs, nj);
                    } else if constexpr (std::is_same_v<TAcc, float>) {
                        ker.axpyF32(arow, bpanel, ldb, nk, accs, nj);
                    } else if constexpr (std::is_same_v<TAcc, double>) {
                        ker.axpyF64(arow, bpanel, ldb, nk, accs, nj);
                    } else {
                        axpyPanel<TAcc>(arow, bpanel, ldb, nk, accs, nj);
                    }
                }
            }
            for (std::size_t r = 0; r < rows; ++r) {
                const std::size_t i = r0 + r;
                const TAcc *accs = acc + r * bn;
                const TCD *crow = pc + i * ldcd + j0;
                TCD *drow = pd + i * ldcd + j0;
                for (std::size_t j = 0; j < nj; ++j) {
                    const TAcc scaled =
                        alpha_acc * accs[j] +
                        beta_acc * static_cast<TAcc>(
                                       fp::NumericTraits<TCD>::widen(
                                           crow[j]));
                    drow[j] = TCD(scaled);
                }
            }
        }
    });
}

} // namespace detail

} // namespace blas
} // namespace mc

#endif // MC_BLAS_FAST_GEMM_HH
