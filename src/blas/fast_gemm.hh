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
 *  - a register-blocked micro-kernel (simd_vec_kernels.hh) holds an
 *    MR-row x NR-column block of independent accumulators in
 *    registers for a whole k-block, so each k step is MR * NR/W
 *    independent mul+add pairs fed by NR/W loads of B and MR
 *    broadcasts of A, instead of a chain serialized on the FP-add
 *    latency or on memory;
 *  - B is staged once into contiguous NR-wide micro-panels (widened
 *    to the accumulator type in the same pass; conversion is exact, so
 *    values are unchanged), and A is widened once up front (f32/f64 A
 *    is read in place). The staged panels are reused across calls
 *    through the content-addressed PackCache and otherwise live in
 *    thread-local ScratchArena frames (pack_cache.hh,
 *    scratch_arena.hh);
 *  - loops are blocked (blockM x blockN x blockK) so the B micro-panels
 *    of one block are served from cache for a whole block of output
 *    rows;
 *  - row blocks fan out across exec::sharedPool workers. Each (i, j)
 *    is computed wholly by one task, so results are independent of the
 *    thread count.
 *
 * The micro-kernels are reached through a runtime-dispatched table
 * (simd_kernels.hh): scalar -> SSE2 -> AVX2 -> AVX-512 on x86-64, NEON
 * on aarch64, selected per CPU at startup and overridable via
 * FunctionalGemmOptions::simd or the MC_SIMD environment variable.
 * Every tier, the scalar one included, runs the same loop nest from
 * one template; MR and NR are per-tier constants sized to the register
 * file, not knobs. Vector lanes widen over the j dimension only —
 * distinct j means distinct accumulators, so lane parallelism never
 * re-associates a sum, and the block shape never changes bits. Every
 * tier TU is compiled with -ffp-contract=off and without FMA codegen
 * flags, so mul and add round separately per lane, and every tier is
 * bit-identical to the scalar tier and to the retained scalar
 * reference (functional.hh); tests/blas/simd_tier_test.cc and
 * fast_gemm_test.cc enforce this with memcmp.
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
 * Widened copy of @p in (rows x cols, row-major) into @p out in the
 * packed B layout: @p nr-wide micro-panels, panel p holding columns
 * [p * nr, p * nr + nr) as a contiguous padded_rows x nr row-major
 * block, so the micro-kernel reads one nr-element row per k step.
 * Columns past @p cols and rows past @p rows are zero. The widen and
 * the reorder are one pass; Half/BFloat16 sources go through @p ker's
 * batch-widen kernels (bit-identical to the scalar per-element widen).
 */
template <typename TSrc, typename TAcc>
void
widenMicroPanelsInto(const TSrc *in, std::size_t rows, std::size_t cols,
                     std::size_t padded_rows, std::size_t nr, TAcc *out,
                     const SimdKernels &ker)
{
    const auto widen = packWidenKernel<TSrc, TAcc>(ker);
    const std::size_t panels = (cols + nr - 1) / nr;
    for (std::size_t p = 0; p < panels; ++p) {
        const std::size_t j0 = p * nr;
        const std::size_t width = std::min(nr, cols - j0);
        TAcc *panel = out + p * padded_rows * nr;
        for (std::size_t kk = 0; kk < rows; ++kk) {
            const TSrc *src = in + kk * cols + j0;
            TAcc *dst = panel + kk * nr;
            if (widen) {
                widen(reinterpret_cast<const std::uint16_t *>(src),
                      reinterpret_cast<float *>(dst), width);
            } else {
                for (std::size_t j = 0; j < width; ++j)
                    dst[j] = static_cast<TAcc>(
                        fp::NumericTraits<TSrc>::widen(src[j]));
            }
            std::fill(dst + width, dst + nr, TAcc(0));
        }
        std::fill_n(panel + rows * nr, (padded_rows - rows) * nr, TAcc(0));
    }
}

/**
 * Stage one operand into its packed/widened layout, reusing storage in
 * this order:
 *
 *  1. in place — only A, when TSrc already is TAcc and no padding is
 *     needed (the float/double fast path; neither the cache nor the
 *     fingerprint is touched). B is always repacked into micro-panels;
 *  2. the process-wide PackCache — keyed by a CRC-32 fingerprint of
 *     the source bytes plus shape/type/tier/pad, so repeated-weight
 *     calls skip packing entirely (@p keep pins the entry across
 *     eviction for the duration of the call). The tier fixes the
 *     micro-panel width, so it fixes the B layout too;
 *  3. the caller's thread-local scratch @p frame when the cache is off
 *     or the operand is small.
 *
 * Every path runs the same widen*Into routine, so the staged bytes
 * are identical however they were obtained — the backend's
 * bit-exactness contract extends to the cache by construction.
 *
 * @p kind selects the A layout (WidenA: row-major, @p pad pads
 * columns) or the B layout (WidenB: widenMicroPanelsInto with @p ker's
 * micro-panel width, @p pad pads rows).
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
        if (for_a && pad == cols)
            return src;
    }
    const std::size_t nr = ker.nr<TAcc>();
    const std::size_t elems =
        for_a ? rows * pad : pad * ((cols + nr - 1) / nr * nr);
    const auto fill = [&](TAcc *out) {
        if (for_a)
            widenPadColsInto<TSrc, TAcc>(src, rows, cols, pad, out, ker);
        else
            widenMicroPanelsInto<TSrc, TAcc>(src, rows, cols, pad, nr,
                                             out, ker);
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
 * staged operands — @p pa row-major (leading dimension @p lda), @p pb
 * in @p k-deep micro-panels (widenMicroPanelsInto) — k ascending per
 * element, row blocks fanned across threads.
 *
 * Inside each blockM x blockN x blockK block the tier's micro-kernel
 * runs once per (micro-panel, MR-row group): the jr/ir loops of a BLIS
 * macro-kernel. blockN is rounded up to whole micro-panels. Padded
 * columns are accumulated like real ones but never stored, so a NaN
 * that a zero padding lane makes (inf * 0) cannot reach D.
 */
template <typename TCD, typename TAcc>
void
blockedGemmCore(std::size_t m, std::size_t n, std::size_t k, double alpha,
                const TAcc *pa, std::size_t lda, const TAcc *pb,
                double beta, const TCD *pc, TCD *pd, std::size_t ldcd,
                bool round_each_step, const FunctionalGemmOptions &opts)
{
    static_assert(std::is_same_v<TCD, TAcc> ||
                      (std::is_same_v<TCD, fp::Half> &&
                       std::is_same_v<TAcc, float>),
                  "the combos accumulate in TCD, or in f32 for f16 D");
    mc_assert(opts.blockM >= 1 && opts.blockN >= 1 && opts.blockK >= 1,
              "block sizes must be positive");
    // Resolve the SIMD tier once; every worker uses the same kernels,
    // and every tier is bit-identical, so the choice never changes
    // results.
    const SimdKernels &ker = simdKernelsFor(opts.simd);
    const std::size_t mr = ker.mr;
    const std::size_t nr = ker.nr<TAcc>();
    const std::size_t bm = static_cast<std::size_t>(opts.blockM);
    const std::size_t bn =
        (static_cast<std::size_t>(opts.blockN) + nr - 1) / nr * nr;
    const std::size_t bk = static_cast<std::size_t>(opts.blockK);
    const TAcc alpha_acc = static_cast<TAcc>(alpha);
    const TAcc beta_acc = static_cast<TAcc>(beta);
    // Per-step rounding is the identity when TCD and TAcc coincide.
    SimdKernels::MicroFn<TAcc> micro;
    if constexpr (std::is_same_v<TAcc, double>)
        micro = ker.microF64;
    else if (round_each_step && std::is_same_v<TCD, fp::Half>)
        micro = ker.microRoundHalfF32;
    else
        micro = ker.microF32;

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
                for (std::size_t jp = 0; jp < nj; jp += nr) {
                    // Panel (j0 + jp) / nr starts (j0 + jp) * k
                    // elements in; its row k0 is k0 * nr further.
                    const TAcc *bpanel = pb + (j0 + jp) * k + k0 * nr;
                    for (std::size_t r = 0; r < rows; r += mr)
                        micro(pa + (r0 + r) * lda + k0, lda, bpanel, nk,
                              acc + r * bn + jp, bn,
                              std::min(mr, rows - r));
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
