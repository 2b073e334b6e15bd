/**
 * @file
 * AVX-512 tier: 16 f32 / 8 f64 lanes, mask-register blends, and the
 * hardware f16 round trip. Compiled -mavx512f/bw/vl/dq with
 * -ffp-contract=off and no -mfma (see src/blas/CMakeLists.txt),
 * keeping mul and add as separate roundings — the bit-exactness
 * contract of simd_vec_kernels.hh.
 */

#if defined(MC_SIMD_HAVE_X86)

#include <immintrin.h>

#include "blas/simd_vec_kernels.hh"

namespace mc {
namespace blas {
namespace detail {

namespace {

struct Avx512Ops
{
    using VF = __m512;
    using VD = __m512d;
    using VI = __m512i;
    using Mask = __mmask16;
    static constexpr std::size_t kWidthF = 16;
    static constexpr std::size_t kWidthD = 8;
    // 6 x 4 accumulator vectors + 4 of B + 1 broadcast of the 32 zmm.
    static constexpr std::size_t kMR = 6;
    static constexpr std::size_t kNV = 4;

    static VF loadF(const float *p) { return _mm512_loadu_ps(p); }
    static void storeF(float *p, VF v) { _mm512_storeu_ps(p, v); }
    static VF set1F(float v) { return _mm512_set1_ps(v); }
    static VF addF(VF a, VF b) { return _mm512_add_ps(a, b); }
    static VF mulF(VF a, VF b) { return _mm512_mul_ps(a, b); }

    static VD loadD(const double *p) { return _mm512_loadu_pd(p); }
    static void storeD(double *p, VD v) { _mm512_storeu_pd(p, v); }
    static VD set1D(double v) { return _mm512_set1_pd(v); }
    static VD addD(VD a, VD b) { return _mm512_add_pd(a, b); }
    static VD mulD(VD a, VD b) { return _mm512_mul_pd(a, b); }

    static VI set1I(int v) { return _mm512_set1_epi32(v); }
    static VI andI(VI a, VI b) { return _mm512_and_si512(a, b); }
    static VI orI(VI a, VI b) { return _mm512_or_si512(a, b); }
    static VI addI(VI a, VI b) { return _mm512_add_epi32(a, b); }
    static VI subI(VI a, VI b) { return _mm512_sub_epi32(a, b); }
    template <int N> static VI srli(VI v) { return _mm512_srli_epi32(v, N); }
    template <int N> static VI slli(VI v) { return _mm512_slli_epi32(v, N); }
    // Signed compares suffice: every compared value here is < 2^31.
    static Mask cmpgtI(VI a, VI b) { return _mm512_cmpgt_epi32_mask(a, b); }
    static Mask cmpeqI(VI a, VI b) { return _mm512_cmpeq_epi32_mask(a, b); }
    static VI blendI(VI a, VI b, Mask m)
    {
        return _mm512_mask_blend_epi32(m, a, b);
    }
    static VI cvtF2I(VF v) { return _mm512_cvtps_epi32(v); }
    static VF cvtI2F(VI v) { return _mm512_cvtepi32_ps(v); }
    static VI castF2I(VF v) { return _mm512_castps_si512(v); }
    static VF castI2F(VI v) { return _mm512_castsi512_ps(v); }

    // The AVX512F forms of the F16C converts. vcvtps2ph with the RNE
    // immediate matches Half::fromFloatBits on every f32 input, NaN
    // payloads included; vcvtph2ps only differs from the software
    // widen by quieting signalling NaNs, which the narrow never emits.
    static VF
    roundTripHalf(VF v)
    {
        return _mm512_cvtph_ps(_mm512_cvtps_ph(
            v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
    }

    static VI
    loadU16(const std::uint16_t *p)
    {
        return _mm512_cvtepu16_epi32(
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p)));
    }
};

} // namespace

const SimdKernels &
avx512SimdKernels()
{
    static const SimdKernels kernels =
        makeVecKernels<Avx512Ops>(SimdTier::Avx512);
    return kernels;
}

} // namespace detail
} // namespace blas
} // namespace mc

#endif // MC_SIMD_HAVE_X86
