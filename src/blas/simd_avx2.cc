/**
 * @file
 * AVX2 tier: 8 f32 / 4 f64 lanes, plus the F16C converts for the f16
 * round trip (the rung requires both features). Compiled -mavx2
 * -mf16c with -ffp-contract=off and *without* -mfma (see
 * src/blas/CMakeLists.txt): a contracted mul-add would skip the
 * product rounding and break the bit-exactness contract of
 * simd_vec_kernels.hh.
 */

#if defined(MC_SIMD_HAVE_X86)

#include <immintrin.h>

#include "blas/simd_vec_kernels.hh"

namespace mc {
namespace blas {
namespace detail {

namespace {

struct Avx2Ops
{
    using VF = __m256;
    using VD = __m256d;
    using VI = __m256i;
    using Mask = __m256i;
    static constexpr std::size_t kWidthF = 8;
    static constexpr std::size_t kWidthD = 4;
    // 6 x 2 accumulator vectors + 2 of B + broadcast + product: the
    // 16 ymm.
    static constexpr std::size_t kMR = 6;
    static constexpr std::size_t kNV = 2;

    static VF loadF(const float *p) { return _mm256_loadu_ps(p); }
    static void storeF(float *p, VF v) { _mm256_storeu_ps(p, v); }
    static VF set1F(float v) { return _mm256_set1_ps(v); }
    static VF addF(VF a, VF b) { return _mm256_add_ps(a, b); }
    static VF mulF(VF a, VF b) { return _mm256_mul_ps(a, b); }

    static VD loadD(const double *p) { return _mm256_loadu_pd(p); }
    static void storeD(double *p, VD v) { _mm256_storeu_pd(p, v); }
    static VD set1D(double v) { return _mm256_set1_pd(v); }
    static VD addD(VD a, VD b) { return _mm256_add_pd(a, b); }
    static VD mulD(VD a, VD b) { return _mm256_mul_pd(a, b); }

    static VI set1I(int v) { return _mm256_set1_epi32(v); }
    static VI andI(VI a, VI b) { return _mm256_and_si256(a, b); }
    static VI orI(VI a, VI b) { return _mm256_or_si256(a, b); }
    static VI addI(VI a, VI b) { return _mm256_add_epi32(a, b); }
    static VI subI(VI a, VI b) { return _mm256_sub_epi32(a, b); }
    template <int N> static VI srli(VI v) { return _mm256_srli_epi32(v, N); }
    template <int N> static VI slli(VI v) { return _mm256_slli_epi32(v, N); }
    // Signed compares suffice: every compared value here is < 2^31.
    static Mask cmpgtI(VI a, VI b) { return _mm256_cmpgt_epi32(a, b); }
    static Mask cmpeqI(VI a, VI b) { return _mm256_cmpeq_epi32(a, b); }
    static VI blendI(VI a, VI b, Mask m)
    {
        return _mm256_blendv_epi8(a, b, m);
    }
    static VI cvtF2I(VF v) { return _mm256_cvtps_epi32(v); }
    static VF cvtI2F(VI v) { return _mm256_cvtepi32_ps(v); }
    static VI castF2I(VF v) { return _mm256_castps_si256(v); }
    static VF castI2F(VI v) { return _mm256_castsi256_ps(v); }

    // F16C: vcvtps2ph with the RNE immediate matches
    // Half::fromFloatBits on every f32 input, NaN payloads included;
    // vcvtph2ps only differs from the software widen by quieting
    // signalling NaNs, which the narrow never emits.
    static VF
    roundTripHalf(VF v)
    {
        return _mm256_cvtph_ps(_mm256_cvtps_ph(
            v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
    }

    static VI
    loadU16(const std::uint16_t *p)
    {
        return _mm256_cvtepu16_epi32(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(p)));
    }
};

} // namespace

const SimdKernels &
avx2SimdKernels()
{
    static const SimdKernels kernels =
        makeVecKernels<Avx2Ops>(SimdTier::Avx2);
    return kernels;
}

} // namespace detail
} // namespace blas
} // namespace mc

#endif // MC_SIMD_HAVE_X86
