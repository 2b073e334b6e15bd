/**
 * @file
 * The quantized INT8 GEMM path (docs/PERF.md "Integer kernels"):
 * per-tensor affine quantization, int8 x int8 products accumulated
 * exactly in int32, and a requantize epilogue with round-to-nearest-
 * even and int8 saturation.
 *
 * Numeric contract (QuantParams doc): with real = scale * (q - zero),
 *
 *   acc(i,j) = sum_k (A(i,k) - zeroA) * (B(k,j) - zeroB)   // exact i32
 *   D(i,j)   = sat_i8(rne(alpha*effScale*acc + beta*(C - zeroD)) + zeroD)
 *
 * where effScale = scaleA*scaleB/scaleD. The accumulation is exact
 * integer arithmetic, so every SIMD tier — and every block size and
 * thread count — produces bit-identical D; the only rounding lives in
 * requantizeI8, which all paths share. The fast path never subtracts
 * the zero points in the inner loop: the kernels accumulate raw
 * sum a*b, and the driver applies the algebraic correction
 *
 *   acc = raw - zeroA*colsum(B) - zeroB*rowsum(A) + k*zeroA*zeroB
 *
 * in the O(m*n) epilogue.
 */

#ifndef MC_BLAS_INT8_GEMM_HH
#define MC_BLAS_INT8_GEMM_HH

#include <cmath>
#include <cstdint>

#include "blas/gemm_types.hh"
#include "common/matrix.hh"

namespace mc {
namespace blas {

/**
 * Largest supported reduction depth: at k = 32768 the worst-case
 * accumulator |acc| <= k * 255^2 = 2130739200 still fits int32; one
 * more step could overflow. Both entry points assert this bound.
 */
inline constexpr std::size_t kMaxQuantizedK = 32768;

/** The one effective output scale, alpha * scaleA*scaleB/scaleD.
 *  Shared by the scalar and fast paths so both round identically. */
inline double
effectiveQuantScale(double alpha, const QuantParams &qp)
{
    return alpha * (static_cast<double>(qp.scaleA) *
                    static_cast<double>(qp.scaleB) /
                    static_cast<double>(qp.scaleD));
}

/**
 * Requantize one int32 accumulator to int8:
 * sat_i8(rne(eff_scale*acc + beta*(c - zeroD)) + zeroD). nearbyint
 * under the default rounding mode is round-to-nearest, ties-to-even.
 * Inline in the header so tests can sweep it exhaustively.
 */
inline std::int8_t
requantizeI8(std::int32_t acc, double eff_scale, double beta,
             std::int8_t c, const QuantParams &qp)
{
    const double value =
        eff_scale * static_cast<double>(acc) +
        beta * (static_cast<double>(c) - static_cast<double>(qp.zeroD));
    const double shifted =
        std::nearbyint(value) + static_cast<double>(qp.zeroD);
    // The negated first test also catches NaN (degenerate scale
    // inputs), pinning it to the bottom of the range deterministically.
    if (!(shifted > -128.0))
        return std::int8_t{-128};
    if (shifted >= 127.0)
        return std::int8_t{127};
    return static_cast<std::int8_t>(shifted);
}

/** The retained scalar reference: the triple loop, zero points
 *  subtracted in the inner product. Ground truth for every test. */
void scalarQuantizedGemm(double alpha, const Matrix<std::int8_t> &a,
                         const Matrix<std::int8_t> &b, double beta,
                         const Matrix<std::int8_t> &c,
                         Matrix<std::int8_t> &d, const QuantParams &qp);

/**
 * The blocked/packed fast path: B pre-packed into the dispatched
 * tier's k-group layout (simd_int_kernels.hh), rows fanned across
 * opts.threads, zero points corrected in the epilogue. Bit-identical
 * to scalarQuantizedGemm for every tier/block/thread setting.
 */
void fastQuantizedGemm(double alpha, const Matrix<std::int8_t> &a,
                       const Matrix<std::int8_t> &b, double beta,
                       const Matrix<std::int8_t> &c,
                       Matrix<std::int8_t> &d, const QuantParams &qp,
                       const FunctionalGemmOptions &opts = {});

/**
 * True strided-batched quantized GEMM: D_e = requant(A_e * B_e, C_e)
 * over @p batch entries at element strides (rocBLAS strided-batched
 * convention; a zero operand stride broadcasts — and stages — one
 * matrix across the batch, the attention-weights case; C/D strides
 * must be nonzero for batch > 1). Each entry is bit-identical to
 * fastQuantizedGemm on the same slices; staging goes through the
 * PackCache/ScratchArena reuse layer (pack_cache.hh).
 */
void fastBatchedQuantizedGemm(std::size_t batch, double alpha,
                              const std::int8_t *a, std::size_t stride_a,
                              const std::int8_t *b, std::size_t stride_b,
                              double beta, const std::int8_t *c,
                              std::size_t stride_c, std::int8_t *d,
                              std::size_t stride_d, std::size_t m,
                              std::size_t n, std::size_t k,
                              const QuantParams &qp,
                              const FunctionalGemmOptions &opts = {});

} // namespace blas
} // namespace mc

#endif // MC_BLAS_INT8_GEMM_HH
