/**
 * @file
 * Exhaustive bit-exactness of the vectorized Half/BFloat16 <-> f32
 * conversions, for every SIMD tier this host can run.
 *
 * The semantic anchor is the software arithmetic in fp/half.hh and
 * fp/bfloat16.hh: widening must reproduce Half::fromBits(h).toFloat()
 * for all 65536 bit patterns, and the round_each_step chain's f16
 * round trip must reproduce Half(f).toFloat() — RNE ties, subnormals,
 * infinities, NaN quieting and payload truncation included.
 * Comparisons are on raw bit patterns, so NaN payloads and signed
 * zeros count.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "blas/simd_dispatch.hh"
#include "blas/simd_kernels.hh"
#include "common/random.hh"
#include "fp/bfloat16.hh"
#include "fp/convert.hh"
#include "fp/half.hh"

namespace mc {
namespace blas {
namespace {

std::uint32_t
floatBits(float f)
{
    std::uint32_t u;
    std::memcpy(&u, &f, sizeof(u));
    return u;
}

float
bitsToFloat(std::uint32_t u)
{
    float f;
    std::memcpy(&f, &u, sizeof(f));
    return f;
}

std::vector<std::uint16_t>
allU16Patterns()
{
    std::vector<std::uint16_t> v(1u << 16);
    for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = static_cast<std::uint16_t>(i);
    return v;
}

/** f32 bit patterns that sit on every rounding boundary the narrowing
 *  kernels special-case: zeros, subnormal thresholds, RNE ties,
 *  overflow-to-inf, and NaN payloads (quiet and signalling). */
std::vector<std::uint32_t>
boundaryF32Patterns()
{
    std::vector<std::uint32_t> v = {
        0x00000000u, 0x80000000u, // +/- 0
        0x00000001u, 0x80000001u, // f32 subnormals
        0x007fffffu,              // largest f32 subnormal
        0x00800000u,              // smallest f32 normal
        0x33000000u, 0x33000001u, // around Half::minSubnormal / 2
        0x337fffffu, 0x33800000u, 0x33800001u,
        0x38000000u,              // 2^-15 (half subnormal range)
        0x387fc000u, 0x387fe000u, 0x387fffffu,
        0x38800000u,              // Half::minNormal
        0x38801000u, 0x38802000u, 0x38803000u, // RNE ties near minNormal
        0x3f800000u, 0x3f801000u, 0x3f802000u, 0x3f803000u, // 1.0 + ties
        0x477fe000u, 0x477fefffu, 0x477ff000u, // 65504 / overflow edge
        0x477fffffu, 0x47800000u,              // just past maxFinite
        0x7f7fffffu,                           // f32 maxFinite
        0x7f800000u, 0xff800000u,              // +/- inf
        0x7f800001u, 0xff800001u,              // signalling NaNs
        0x7fc00000u, 0xffc00000u,              // quiet NaNs
        0x7fffffffu, 0x7f812345u,              // NaN payloads
        // BF16 rounding edges: tie at bit 15 and the bf16 overflow rim.
        0x3f808000u, 0x3f818000u, 0x3f80ffffu,
        0x7f7f8000u, 0x7f7fffffu,
    };
    // Both signs of every positive pattern above.
    const std::size_t n = v.size();
    for (std::size_t i = 0; i < n; ++i)
        if ((v[i] & 0x80000000u) == 0)
            v.push_back(v[i] | 0x80000000u);
    return v;
}

class SimdConvertTest : public ::testing::TestWithParam<SimdTier>
{
protected:
    const SimdKernels &ker() const { return simdKernels(GetParam()); }
};

TEST_P(SimdConvertTest, WidenHalfAllPatterns)
{
    const std::vector<std::uint16_t> in = allU16Patterns();
    std::vector<float> out(in.size());
    ker().widenHalfToF32(in.data(), out.data(), in.size());
    for (std::size_t i = 0; i < in.size(); ++i) {
        const float want = fp::Half::fromBits(in[i]).toFloat();
        ASSERT_EQ(floatBits(out[i]), floatBits(want))
            << "h=0x" << std::hex << in[i];
    }
}

TEST_P(SimdConvertTest, WidenBf16AllPatterns)
{
    const std::vector<std::uint16_t> in = allU16Patterns();
    std::vector<float> out(in.size());
    ker().widenBf16ToF32(in.data(), out.data(), in.size());
    for (std::size_t i = 0; i < in.size(); ++i) {
        const float want = fp::BFloat16::fromBits(in[i]).toFloat();
        ASSERT_EQ(floatBits(out[i]), floatBits(want))
            << "b=0x" << std::hex << in[i];
    }
}

/** Run @p in through the round_each_step chain's per-lane f16 round
 *  trip: microRoundHalfF32 on one row, one micro-panel at a time, with
 *  one k-step that adds 1 * -0 (x + -0 is x for every x, signed zeros
 *  included), so each lane comes back as widen(narrow(x)). On sse2 and
 *  NEON that narrow is the integer narrowLanesHalf; on avx2/avx512 it
 *  is vcvtps2ph. */
std::vector<float>
roundTripThroughChain(const SimdKernels &ker, std::vector<float> accs)
{
    const float one = 1.0f;
    const std::size_t nr = ker.nr<float>();
    const std::size_t count = accs.size();
    const std::vector<float> neg_zero(nr, -0.0f);
    accs.resize((count + nr - 1) / nr * nr, 0.0f);
    for (std::size_t j = 0; j < accs.size(); j += nr)
        ker.microRoundHalfF32(&one, 1, neg_zero.data(), 1,
                              accs.data() + j, nr, 1);
    accs.resize(count);
    return accs;
}

TEST_P(SimdConvertTest, NarrowHalfBoundaryPatterns)
{
    const std::vector<std::uint32_t> bits = boundaryF32Patterns();
    std::vector<float> in(bits.size());
    for (std::size_t i = 0; i < bits.size(); ++i)
        in[i] = bitsToFloat(bits[i]);
    const std::vector<float> out = roundTripThroughChain(ker(), in);
    for (std::size_t i = 0; i < bits.size(); ++i)
        ASSERT_EQ(floatBits(out[i]), floatBits(fp::Half(in[i]).toFloat()))
            << "f32=0x" << std::hex << bits[i];
}

TEST_P(SimdConvertTest, NarrowHalfRandomPatterns)
{
    Rng rng(0x5eedf00du);
    constexpr std::size_t kCount = 1u << 20;
    std::vector<float> in(kCount);
    std::vector<std::uint32_t> bits(kCount);
    for (std::size_t i = 0; i < kCount; ++i) {
        bits[i] = static_cast<std::uint32_t>(rng.next());
        in[i] = bitsToFloat(bits[i]);
    }
    const std::vector<float> out = roundTripThroughChain(ker(), in);
    for (std::size_t i = 0; i < kCount; ++i)
        ASSERT_EQ(floatBits(out[i]), floatBits(fp::Half(in[i]).toFloat()))
            << "f32=0x" << std::hex << bits[i];
}

TEST_P(SimdConvertTest, RoundTripHalfMatchesSoftware)
{
    // The chain's round trip on every half value widened to f32, its
    // +-1 f32-ulp neighbours, and the exact midpoint to the next half
    // away from zero (a RNE tie; 65520 ties to infinity).
    std::vector<std::uint32_t> bits;
    for (std::uint32_t h = 0; h < (1u << 16); ++h) {
        const std::uint32_t x = floatBits(
            fp::Half::fromBits(static_cast<std::uint16_t>(h)).toFloat());
        bits.insert(bits.end(), {x, x - 1, x + 1});
        const std::uint32_t exp = (h >> 10) & 0x1f;
        if (exp == 31)
            continue;
        const double ulp = std::ldexp(1.0, exp == 0 ? -24 : int(exp) - 25);
        const double mid = std::fabs(double(bitsToFloat(x))) + ulp / 2;
        bits.push_back(floatBits(static_cast<float>(mid)) |
                       (x & 0x80000000u));
    }
    std::vector<float> in(bits.size());
    for (std::size_t i = 0; i < bits.size(); ++i)
        in[i] = bitsToFloat(bits[i]);
    const std::vector<float> accs = roundTripThroughChain(ker(), in);
    for (std::size_t i = 0; i < bits.size(); ++i) {
        const float want = fp::Half(bitsToFloat(bits[i])).toFloat();
        ASSERT_EQ(floatBits(accs[i]), floatBits(want))
            << "f32=0x" << std::hex << bits[i];
    }
}

TEST_P(SimdConvertTest, ShortAndUnalignedLengthsHitTheTailPath)
{
    // Vector widths are <= 16 f32 lanes; lengths below and around one
    // vector exercise the scalar tails, and offset inputs exercise the
    // unaligned loads the kernels must use.
    const std::vector<std::uint16_t> patterns = allU16Patterns();
    for (std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                            std::size_t{7}, std::size_t{13},
                            std::size_t{17}, std::size_t{31},
                            std::size_t{33}}) {
        for (std::size_t offset : {std::size_t{0}, std::size_t{1},
                                   std::size_t{5}}) {
            std::vector<float> out(len, -1.0f);
            ker().widenHalfToF32(patterns.data() + 0x3bf0 + offset,
                                 out.data(), len);
            for (std::size_t i = 0; i < len; ++i) {
                const std::uint16_t h = patterns[0x3bf0 + offset + i];
                ASSERT_EQ(floatBits(out[i]),
                          floatBits(fp::Half::fromBits(h).toFloat()))
                    << "len=" << len << " offset=" << offset;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AvailableTiers, SimdConvertTest,
    ::testing::ValuesIn(availableSimdTiers()),
    [](const ::testing::TestParamInfo<SimdTier> &info) {
        return std::string(simdTierName(info.param));
    });

TEST(FpConvertBatch, MatchesPerElementSoftwareConversion)
{
    // The scalar batch widen in fp/convert.hh is the anchor the tier
    // widens above compare against; pin it to the per-element
    // Half/BFloat16 arithmetic directly.
    const std::uint16_t halves[] = {0x0000, 0x8000, 0x0001, 0x03ff,
                                    0x0400, 0x3c00, 0x7bff, 0x7c00,
                                    0xfc00, 0x7e00, 0x7c01, 0xbc00};
    constexpr std::size_t kN = sizeof(halves) / sizeof(halves[0]);
    float wide[kN];
    fp::widenHalfBits(halves, wide, kN);
    for (std::size_t i = 0; i < kN; ++i)
        EXPECT_EQ(floatBits(wide[i]),
                  floatBits(fp::Half::fromBits(halves[i]).toFloat()));
    float bwide[kN];
    fp::widenBf16Bits(halves, bwide, kN);
    for (std::size_t i = 0; i < kN; ++i)
        EXPECT_EQ(floatBits(bwide[i]),
                  floatBits(fp::BFloat16::fromBits(halves[i]).toFloat()));
}

} // namespace
} // namespace blas
} // namespace mc
