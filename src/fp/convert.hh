/**
 * @file
 * Batched reduced-precision -> binary32 widening on raw bit patterns.
 *
 * The fast functional-GEMM backend packs whole Half/BFloat16 operand
 * matrices into f32 buffers before the blocked kernels run, and the
 * SIMD tiers (src/blas/simd_*.cc) re-implement these loops with vector
 * integer arithmetic. These scalar functions are the semantic anchor:
 * element i of the output is exactly Half::fromBits(in[i]).toFloat()
 * (resp. the BFloat16 equivalent), and the exhaustive suite in
 * tests/fp/simd_convert_test.cc pins every SIMD tier to them
 * bit-for-bit.
 */

#ifndef MC_FP_CONVERT_HH
#define MC_FP_CONVERT_HH

#include <cstddef>
#include <cstdint>

namespace mc {
namespace fp {

/** out[i] = Half::fromBits(in[i]).toFloat(). Widening is exact. */
void widenHalfBits(const std::uint16_t *in, float *out, std::size_t n);

/** out[i] = BFloat16::fromBits(in[i]).toFloat(). Widening is exact. */
void widenBf16Bits(const std::uint16_t *in, float *out, std::size_t n);

} // namespace fp
} // namespace mc

#endif // MC_FP_CONVERT_HH
