/**
 * @file
 * The per-tier micro-kernel table the fast functional-GEMM backend
 * dispatches through.
 *
 * Each SIMD tier (src/blas/simd_scalar.cc, simd_sse2.cc, simd_avx2.cc,
 * simd_avx512.cc, simd_neon.cc) fills one SimdKernels with function
 * pointers implementing the same contracts as the scalar templates in
 * fast_gemm.hh / fp/convert.hh — and the same *bits*: every kernel
 * widens across the j (column) lanes of a panel, so each output
 * element keeps exactly one accumulator fed in ascending-k order, with
 * multiply and add rounded separately (the tier translation units are
 * compiled -ffp-contract=off and never enable FMA). The conversion
 * kernels reproduce the software Half/BFloat16 rounding bit-for-bit,
 * which tests/fp/simd_convert_test.cc checks exhaustively.
 */

#ifndef MC_BLAS_SIMD_KERNELS_HH
#define MC_BLAS_SIMD_KERNELS_HH

#include <cstddef>
#include <cstdint>

#include "blas/simd_dispatch.hh"

namespace mc {
namespace blas {

/**
 * Function-pointer table of one tier's kernels. All pointers are
 * always non-null; the scalar tier fills them with the retained
 * reference loops.
 */
struct SimdKernels
{
    /** accs[j] += arow[kk] * bpanel[kk*ldb + j], kk ascending. */
    using AxpyF32 = void (*)(const float *arow, const float *bpanel,
                             std::size_t ldb, std::size_t nk, float *accs,
                             std::size_t nj);
    using AxpyF64 = void (*)(const double *arow, const double *bpanel,
                             std::size_t ldb, std::size_t nk, double *accs,
                             std::size_t nj);
    /** Batched bit-pattern conversions (fp/convert.hh semantics). */
    using WidenFn = void (*)(const std::uint16_t *in, float *out,
                             std::size_t n);

    SimdTier tier = SimdTier::Scalar;
    AxpyF32 axpyF32 = nullptr;
    /** The round_each_step HGEMM chain: after every mul+add the
     *  accumulator is rounded to binary16 (software-Half-exact RNE)
     *  and widened back. */
    AxpyF32 axpyRoundHalfF32 = nullptr;
    AxpyF64 axpyF64 = nullptr;
    WidenFn widenHalfToF32 = nullptr;
    WidenFn widenBf16ToF32 = nullptr;
};

/** The kernel table of a *resolved* tier (asserts tier != Auto). */
const SimdKernels &simdKernels(SimdTier resolved);

/** resolveSimdTier + simdKernels in one call — what the GEMM driver
 *  and the packing paths use. */
const SimdKernels &simdKernelsFor(SimdTier requested);

namespace detail {

// Defined by the tier translation units cmake compiles in; only the
// dispatcher (simd_dispatch.cc) calls these directly.
const SimdKernels &scalarSimdKernels();
#if defined(MC_SIMD_HAVE_X86)
const SimdKernels &sse2SimdKernels();
const SimdKernels &avx2SimdKernels();
const SimdKernels &avx512SimdKernels();
#endif
#if defined(MC_SIMD_HAVE_NEON)
const SimdKernels &neonSimdKernels();
#endif

} // namespace detail

} // namespace blas
} // namespace mc

#endif // MC_BLAS_SIMD_KERNELS_HH
