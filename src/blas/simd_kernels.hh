/**
 * @file
 * The per-tier micro-kernel table the fast functional-GEMM backend
 * dispatches through.
 *
 * Each SIMD tier (src/blas/simd_scalar.cc, simd_sse2.cc, simd_avx2.cc,
 * simd_avx512.cc, simd_neon.cc) fills one SimdKernels from the same
 * register-blocked micro-kernel template (simd_vec_kernels.hh), and
 * every tier produces the same *bits*: each output element keeps
 * exactly one accumulator fed in ascending-k order, with multiply and
 * add rounded separately (the tier translation units are compiled
 * -ffp-contract=off and never enable FMA). The conversion kernels
 * reproduce the software Half/BFloat16 rounding bit-for-bit, which
 * tests/fp/simd_convert_test.cc checks exhaustively.
 */

#ifndef MC_BLAS_SIMD_KERNELS_HH
#define MC_BLAS_SIMD_KERNELS_HH

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "blas/simd_dispatch.hh"

namespace mc {
namespace blas {

/**
 * Function-pointer table of one tier's kernels. All pointers are
 * always non-null.
 */
struct SimdKernels
{
    /**
     * One register block over a packed B micro-panel:
     * acc[r * ldacc + j] += a[r * lda + kk] * bpanel[kk * nr + j] for
     * r < rows, j < nr, kk < nk ascending, where nr is the table's
     * micro-panel width for T and 1 <= rows <= mr. The rows x nr
     * accumulators stay in registers for the whole k-block.
     */
    template <typename T>
    using MicroFn = void (*)(const T *a, std::size_t lda, const T *bpanel,
                             std::size_t nk, T *acc, std::size_t ldacc,
                             std::size_t rows);
    /** Batched bit-pattern conversions (fp/convert.hh semantics). */
    using WidenFn = void (*)(const std::uint16_t *in, float *out,
                             std::size_t n);

    SimdTier tier = SimdTier::Scalar;
    /** Rows of one register block (the most a MicroFn takes). */
    std::size_t mr = 1;
    /** Micro-panel widths: the packed B layout of this tier
     *  (fast_gemm.hh widenMicroPanelsInto). */
    std::size_t nrF32 = 1;
    std::size_t nrF64 = 1;
    MicroFn<float> microF32 = nullptr;
    /** The round_each_step HGEMM chain: after every mul+add the
     *  accumulator is rounded to binary16 (software-Half-exact RNE)
     *  and widened back. */
    MicroFn<float> microRoundHalfF32 = nullptr;
    MicroFn<double> microF64 = nullptr;
    WidenFn widenHalfToF32 = nullptr;
    WidenFn widenBf16ToF32 = nullptr;

    /** The micro-panel width for accumulator type T. */
    template <typename T>
    std::size_t
    nr() const
    {
        static_assert(std::is_same_v<T, float> ||
                      std::is_same_v<T, double>);
        return std::is_same_v<T, float> ? nrF32 : nrF64;
    }
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
