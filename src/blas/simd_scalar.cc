/**
 * @file
 * The scalar tier: the register-blocked micro-kernel of
 * simd_vec_kernels.hh over one-lane "vectors" (compiled -O3 with
 * -ffp-contract=off, see CMakeLists.txt), the software f16 round trip
 * and the software conversion loops. It runs the same loop nest as
 * every vector tier, so the tier memcmp matrix compares arithmetic,
 * not loop structure; this is the baseline every vector tier must
 * match bit-for-bit, and the tier MC_SIMD=scalar pins for debugging.
 */

#include "blas/simd_vec_kernels.hh"
#include "fp/convert.hh"

namespace mc {
namespace blas {
namespace detail {

namespace {

struct ScalarOps
{
    using VF = float;
    using VD = double;
    using VI = std::uint32_t;
    static constexpr std::size_t kWidthF = 1;
    static constexpr std::size_t kWidthD = 1;
    // 3 x 4 accumulators + 4 of B + 1 broadcast: the 16 xmm that
    // scalar float code runs in.
    static constexpr std::size_t kMR = 3;
    static constexpr std::size_t kNV = 4;

    static VF loadF(const float *p) { return *p; }
    static void storeF(float *p, VF v) { *p = v; }
    static VF set1F(float v) { return v; }
    static VF addF(VF a, VF b) { return a + b; }
    static VF mulF(VF a, VF b) { return a * b; }

    static VD loadD(const double *p) { return *p; }
    static void storeD(double *p, VD v) { *p = v; }
    static VD set1D(double v) { return v; }
    static VD addD(VD a, VD b) { return a + b; }
    static VD mulD(VD a, VD b) { return a * b; }

    static VF roundTripHalf(VF v) { return fp::Half(v).toFloat(); }
};

} // namespace

const SimdKernels &
scalarSimdKernels()
{
    static const SimdKernels kernels = [] {
        SimdKernels ker = makeMicroKernels<ScalarOps>(SimdTier::Scalar);
        ker.widenHalfToF32 = fp::widenHalfBits;
        ker.widenBf16ToF32 = fp::widenBf16Bits;
        return ker;
    }();
    return kernels;
}

} // namespace detail
} // namespace blas
} // namespace mc
