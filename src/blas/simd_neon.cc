/**
 * @file
 * NEON tier (aarch64): 4 f32 / 2 f64 lanes. Uses vmulq + vaddq (never
 * vmlaq, which fuses) and is compiled -ffp-contract=off, so mul and
 * add round separately — the bit-exactness contract of
 * simd_vec_kernels.hh. vcvtnq converts with round-to-nearest-even
 * regardless of the FPCR rounding mode.
 */

#if defined(MC_SIMD_HAVE_NEON)

#include <arm_neon.h>

#include "blas/simd_vec_kernels.hh"

namespace mc {
namespace blas {
namespace detail {

namespace {

struct NeonOps
{
    using VF = float32x4_t;
    using VD = float64x2_t;
    using VI = uint32x4_t;
    using Mask = uint32x4_t;
    static constexpr std::size_t kWidthF = 4;
    static constexpr std::size_t kWidthD = 2;
    // 6 x 4 accumulator vectors + 4 of B + 1 broadcast of the 32 q
    // registers.
    static constexpr std::size_t kMR = 6;
    static constexpr std::size_t kNV = 4;

    static VF loadF(const float *p) { return vld1q_f32(p); }
    static void storeF(float *p, VF v) { vst1q_f32(p, v); }
    static VF set1F(float v) { return vdupq_n_f32(v); }
    static VF addF(VF a, VF b) { return vaddq_f32(a, b); }
    static VF mulF(VF a, VF b) { return vmulq_f32(a, b); }

    static VD loadD(const double *p) { return vld1q_f64(p); }
    static void storeD(double *p, VD v) { vst1q_f64(p, v); }
    static VD set1D(double v) { return vdupq_n_f64(v); }
    static VD addD(VD a, VD b) { return vaddq_f64(a, b); }
    static VD mulD(VD a, VD b) { return vmulq_f64(a, b); }

    static VI set1I(int v)
    {
        return vdupq_n_u32(static_cast<std::uint32_t>(v));
    }
    static VI andI(VI a, VI b) { return vandq_u32(a, b); }
    static VI orI(VI a, VI b) { return vorrq_u32(a, b); }
    static VI addI(VI a, VI b) { return vaddq_u32(a, b); }
    static VI subI(VI a, VI b) { return vsubq_u32(a, b); }
    template <int N> static VI srli(VI v) { return vshrq_n_u32(v, N); }
    template <int N> static VI slli(VI v) { return vshlq_n_u32(v, N); }
    // Unsigned compares match the x86 tiers' signed ones: every
    // compared value is < 2^31.
    static Mask cmpgtI(VI a, VI b) { return vcgtq_u32(a, b); }
    static Mask cmpeqI(VI a, VI b) { return vceqq_u32(a, b); }
    static VI blendI(VI a, VI b, Mask m) { return vbslq_u32(m, b, a); }
    static VI cvtF2I(VF v)
    {
        // Round-to-nearest-even convert, independent of FPCR.
        return vreinterpretq_u32_s32(vcvtnq_s32_f32(v));
    }
    static VF cvtI2F(VI v)
    {
        // Only small non-negative lane values reach this (exact).
        return vcvtq_f32_u32(v);
    }
    static VI castF2I(VF v) { return vreinterpretq_u32_f32(v); }
    static VF castI2F(VI v) { return vreinterpretq_f32_u32(v); }

    static VI loadU16(const std::uint16_t *p)
    {
        return vmovl_u16(vld1_u16(p));
    }
};

} // namespace

const SimdKernels &
neonSimdKernels()
{
    static const SimdKernels kernels =
        makeVecKernels<NeonOps>(SimdTier::Neon);
    return kernels;
}

} // namespace detail
} // namespace blas
} // namespace mc

#endif // MC_SIMD_HAVE_NEON
