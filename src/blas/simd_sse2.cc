/**
 * @file
 * SSE2 tier: 4 f32 / 2 f64 lanes. Compiled with -ffp-contract=off and
 * no FMA flag (see src/blas/CMakeLists.txt) so mul and add round
 * separately — the bit-exactness contract of simd_vec_kernels.hh.
 * SSE2 is the x86-64 baseline, so this tier is always available there.
 */

#if defined(MC_SIMD_HAVE_X86)

#include <emmintrin.h>

#include "blas/simd_vec_kernels.hh"

namespace mc {
namespace blas {
namespace detail {

namespace {

struct Sse2Ops
{
    using VF = __m128;
    using VD = __m128d;
    using VI = __m128i;
    using Mask = __m128i;
    static constexpr std::size_t kWidthF = 4;
    static constexpr std::size_t kWidthD = 2;
    // 6 x 2 accumulator vectors + 2 of B + broadcast + product: the
    // 16 xmm.
    static constexpr std::size_t kMR = 6;
    static constexpr std::size_t kNV = 2;

    static VF loadF(const float *p) { return _mm_loadu_ps(p); }
    static void storeF(float *p, VF v) { _mm_storeu_ps(p, v); }
    static VF set1F(float v) { return _mm_set1_ps(v); }
    static VF addF(VF a, VF b) { return _mm_add_ps(a, b); }
    static VF mulF(VF a, VF b) { return _mm_mul_ps(a, b); }

    static VD loadD(const double *p) { return _mm_loadu_pd(p); }
    static void storeD(double *p, VD v) { _mm_storeu_pd(p, v); }
    static VD set1D(double v) { return _mm_set1_pd(v); }
    static VD addD(VD a, VD b) { return _mm_add_pd(a, b); }
    static VD mulD(VD a, VD b) { return _mm_mul_pd(a, b); }

    static VI set1I(int v) { return _mm_set1_epi32(v); }
    static VI andI(VI a, VI b) { return _mm_and_si128(a, b); }
    static VI orI(VI a, VI b) { return _mm_or_si128(a, b); }
    static VI addI(VI a, VI b) { return _mm_add_epi32(a, b); }
    static VI subI(VI a, VI b) { return _mm_sub_epi32(a, b); }
    template <int N> static VI srli(VI v) { return _mm_srli_epi32(v, N); }
    template <int N> static VI slli(VI v) { return _mm_slli_epi32(v, N); }
    // Signed compares suffice: every compared value here is < 2^31.
    static Mask cmpgtI(VI a, VI b) { return _mm_cmpgt_epi32(a, b); }
    static Mask cmpeqI(VI a, VI b) { return _mm_cmpeq_epi32(a, b); }
    static VI blendI(VI a, VI b, Mask m)
    {
        return _mm_or_si128(_mm_andnot_si128(m, a), _mm_and_si128(m, b));
    }
    static VI cvtF2I(VF v) { return _mm_cvtps_epi32(v); }
    static VF cvtI2F(VI v) { return _mm_cvtepi32_ps(v); }
    static VI castF2I(VF v) { return _mm_castps_si128(v); }
    static VF castI2F(VI v) { return _mm_castsi128_ps(v); }

    static VI
    loadU16(const std::uint16_t *p)
    {
        const __m128i raw =
            _mm_loadl_epi64(reinterpret_cast<const __m128i *>(p));
        return _mm_unpacklo_epi16(raw, _mm_setzero_si128());
    }
};

} // namespace

const SimdKernels &
sse2SimdKernels()
{
    static const SimdKernels kernels =
        makeVecKernels<Sse2Ops>(SimdTier::Sse2);
    return kernels;
}

} // namespace detail
} // namespace blas
} // namespace mc

#endif // MC_SIMD_HAVE_X86
