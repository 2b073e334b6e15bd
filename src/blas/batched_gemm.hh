/**
 * @file
 * True strided-batched drivers over the fast functional-GEMM backend.
 *
 * These are the host functional path's only drivers: referenceGemm
 * and tiledMatrixCoreGemm (functional.hh) are batches of one through
 * them. An operand whose stride is zero (the batched-attention weight
 * case, and rocBLAS's strideA/strideB = 0 broadcast convention) is
 * staged exactly once, and every entry then fans out over the
 * row-block parallelism of blockedGemmCore. Nonzero-stride operands
 * stage per entry through the PackCache/ScratchArena machinery, so
 * repeated weights across entries (or across calls) still hit the
 * cache.
 *
 * Bit-exactness: entry e computes exactly what referenceGemm (or
 * tiledMatrixCoreGemm) computes on the e-th operand slices — same
 * staged bytes, same blocked core, same accumulation order — so the
 * batched drivers are memcmp-identical to a loop of single calls for
 * every tier, thread count, and cache setting
 * (tests/blas/batched_gemm_test.cc).
 */

#ifndef MC_BLAS_BATCHED_GEMM_HH
#define MC_BLAS_BATCHED_GEMM_HH

#include "arch/mfma_isa.hh"
#include "blas/fast_gemm.hh"

namespace mc {
namespace blas {

namespace detail {

template <typename TCD, typename TAB, typename TAcc>
void
batchedGemmImpl(std::size_t batch, double alpha, const TAB *a,
                std::size_t stride_a, const TAB *b, std::size_t stride_b,
                double beta, const TCD *c, std::size_t stride_c, TCD *d,
                std::size_t stride_d, std::size_t m, std::size_t n,
                std::size_t k, std::size_t kpad, bool round_each_step,
                const FunctionalGemmOptions &opts)
{
    mc_assert(stride_c != 0 || batch <= 1,
              "batched GEMM: C entries may not alias");
    mc_assert(stride_d != 0 || batch <= 1,
              "batched GEMM: D entries may not alias");
    const FunctionalGemmOptions ropts = resolveFunctionalOptions(
        opts, comboForTypes<TCD, TAB, TAcc>(round_each_step), n);
    const SimdKernels &ker = simdKernelsFor(ropts.simd);

    // Shared (stride-0) operands stage once for the whole batch.
    ScratchArena::Frame shared_frame;
    std::shared_ptr<const PackEntry> keep_sa, keep_sb;
    const TAcc *shared_pa =
        stride_a == 0 ? stageWidened<TAB, TAcc>(PackKind::WidenA, a, m, k,
                                                kpad, ker, shared_frame,
                                                keep_sa)
                      : nullptr;
    const TAcc *shared_pb =
        stride_b == 0 ? stageWidened<TAB, TAcc>(PackKind::WidenB, b, k, n,
                                                kpad, ker, shared_frame,
                                                keep_sb)
                      : nullptr;

    for (std::size_t e = 0; e < batch; ++e) {
        ScratchArena::Frame frame;
        std::shared_ptr<const PackEntry> keep_a, keep_b;
        const TAcc *pa =
            shared_pa ? shared_pa
                      : stageWidened<TAB, TAcc>(PackKind::WidenA,
                                                a + e * stride_a, m, k,
                                                kpad, ker, frame, keep_a);
        const TAcc *pb =
            shared_pb ? shared_pb
                      : stageWidened<TAB, TAcc>(PackKind::WidenB,
                                                b + e * stride_b, k, n,
                                                kpad, ker, frame, keep_b);
        blockedGemmCore<TCD, TAcc>(m, n, kpad, alpha, pa, kpad, pb, beta,
                                   c + e * stride_c, d + e * stride_d, n,
                                   round_each_step, ropts);
    }
}

} // namespace detail

/**
 * Strided-batched D_e = alpha * A_e * B_e + beta * C_e with
 * referenceGemm semantics, entry operands at element strides
 * @p stride_a/@p stride_b/@p stride_c/@p stride_d (a zero operand
 * stride broadcasts — and stages — one matrix across the batch; C and
 * D strides must be nonzero for batch > 1). Bit-identical per entry to
 * scalarReferenceGemm.
 */
template <typename TCD, typename TAB, typename TAcc>
void
fastBatchedGemm(std::size_t batch, double alpha, const TAB *a,
                std::size_t stride_a, const TAB *b, std::size_t stride_b,
                double beta, const TCD *c, std::size_t stride_c, TCD *d,
                std::size_t stride_d, std::size_t m, std::size_t n,
                std::size_t k, bool round_each_step = false,
                const FunctionalGemmOptions &opts = FunctionalGemmOptions())
{
    detail::batchedGemmImpl<TCD, TAB, TAcc>(
        batch, alpha, a, stride_a, b, stride_b, beta, c, stride_c, d,
        stride_d, m, n, k, /*kpad=*/k, round_each_step, opts);
}

/**
 * Strided-batched tiled Matrix Core GEMM: k zero-padded to the
 * instruction's k multiple, no per-step rounding. Bit-identical per
 * entry to scalarTiledMatrixCoreGemm.
 */
template <typename TCD, typename TAB, typename TAcc>
void
fastBatchedTiledMatrixCoreGemm(
    const arch::MfmaInstruction &inst, std::size_t batch, double alpha,
    const TAB *a, std::size_t stride_a, const TAB *b,
    std::size_t stride_b, double beta, const TCD *c, std::size_t stride_c,
    TCD *d, std::size_t stride_d, std::size_t m, std::size_t n,
    std::size_t k, const FunctionalGemmOptions &opts =
                       FunctionalGemmOptions())
{
    mc_assert(inst.shape.blocks == 1,
              "the tiled path uses single-block instructions");
    const std::size_t tk = static_cast<std::size_t>(inst.shape.k);
    const std::size_t kpad = (k + tk - 1) / tk * tk;
    detail::batchedGemmImpl<TCD, TAB, TAcc>(
        batch, alpha, a, stride_a, b, stride_b, beta, c, stride_c, d,
        stride_d, m, n, k, kpad, /*round_each_step=*/false, opts);
}

} // namespace blas
} // namespace mc

#endif // MC_BLAS_BATCHED_GEMM_HH
