/**
 * @file
 * The SIMD dispatch ladder (docs/PERF.md): tier naming, parsing,
 * availability, resolution, and the kernel-table plumbing. Numeric
 * bit-exactness of the tiers lives in simd_convert_test.cc and
 * simd_tier_test.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "blas/simd_dispatch.hh"
#include "blas/simd_kernels.hh"

namespace mc {
namespace blas {
namespace {

const SimdTier kAllTiers[] = {SimdTier::Scalar, SimdTier::Sse2,
                              SimdTier::Avx2, SimdTier::Avx512,
                              SimdTier::Neon};

TEST(SimdDispatch, NameParseRoundTrip)
{
    for (SimdTier tier : kAllTiers) {
        SimdTier parsed;
        ASSERT_TRUE(parseSimdTier(simdTierName(tier), &parsed))
            << simdTierName(tier);
        EXPECT_EQ(parsed, tier);
    }
    SimdTier parsed;
    EXPECT_TRUE(parseSimdTier("auto", &parsed));
    EXPECT_EQ(parsed, SimdTier::Auto);
    EXPECT_FALSE(parseSimdTier("avx1024", &parsed));
    EXPECT_FALSE(parseSimdTier("", &parsed));
}

TEST(SimdDispatch, ScalarTierIsAlwaysAvailable)
{
    EXPECT_TRUE(simdTierAvailable(SimdTier::Scalar));
    const std::vector<SimdTier> tiers = availableSimdTiers();
    ASSERT_FALSE(tiers.empty());
    EXPECT_EQ(tiers.front(), SimdTier::Scalar);
    for (SimdTier tier : tiers)
        EXPECT_TRUE(simdTierAvailable(tier));
}

TEST(SimdDispatch, CpuFeaturesMatchTierAvailability)
{
    const CpuFeatures &cpu = cpuFeatures();
    EXPECT_EQ(simdTierAvailable(SimdTier::Sse2), cpu.sse2);
    EXPECT_EQ(simdTierAvailable(SimdTier::Avx2), cpu.avx2);
    EXPECT_EQ(simdTierAvailable(SimdTier::Avx512), cpu.avx512);
    EXPECT_EQ(simdTierAvailable(SimdTier::Neon), cpu.neon);
}

TEST(SimdDispatch, BestTierIsAvailable)
{
    const SimdTier best = bestSimdTier();
    EXPECT_TRUE(simdTierAvailable(best));
    EXPECT_NE(best, SimdTier::Auto);
}

TEST(SimdDispatch, ResolveNeverReturnsAutoAndHonorsAvailableRequests)
{
    EXPECT_NE(resolveSimdTier(SimdTier::Auto), SimdTier::Auto);
    for (SimdTier tier : availableSimdTiers())
        EXPECT_EQ(resolveSimdTier(tier), tier) << simdTierName(tier);
}

TEST(SimdDispatch, ResolveClampsUnavailableRequestsDownTheLadder)
{
    for (SimdTier tier : kAllTiers) {
        const SimdTier resolved = resolveSimdTier(tier);
        EXPECT_TRUE(simdTierAvailable(resolved)) << simdTierName(tier);
        if (!simdTierAvailable(tier)) {
            EXPECT_NE(resolved, tier) << simdTierName(tier);
        }
    }
}

TEST(SimdDispatch, KernelTablesCarryTheirTierAndAreFullyPopulated)
{
    for (SimdTier tier : availableSimdTiers()) {
        const SimdKernels &ker = simdKernels(tier);
        EXPECT_EQ(ker.tier, tier) << simdTierName(tier);
        EXPECT_NE(ker.microF32, nullptr);
        EXPECT_NE(ker.microRoundHalfF32, nullptr);
        EXPECT_NE(ker.microF64, nullptr);
        EXPECT_GE(ker.mr, 1u);
        EXPECT_GE(ker.nrF32, 1u);
        EXPECT_GE(ker.nrF64, 1u);
        EXPECT_NE(ker.widenHalfToF32, nullptr);
        EXPECT_NE(ker.widenBf16ToF32, nullptr);
    }
}

TEST(SimdDispatch, KernelsForResolvesLikeResolveSimdTier)
{
    for (SimdTier tier : kAllTiers)
        EXPECT_EQ(simdKernelsFor(tier).tier, resolveSimdTier(tier))
            << simdTierName(tier);
    EXPECT_EQ(simdKernelsFor(SimdTier::Auto).tier,
              resolveSimdTier(SimdTier::Auto));
}

// The dispatched-tier record is process-global and other tests in this
// binary fetch kernel tables, so assert containment, not equality.
TEST(SimdDispatch, UsedTierLabelNamesEveryDispatchedTier)
{
    const std::string before = usedSimdTierLabel();
    EXPECT_FALSE(before.empty());
    for (SimdTier tier : availableSimdTiers()) {
        simdKernels(tier);
        EXPECT_NE(usedSimdTierLabel().find(simdTierName(tier)),
                  std::string::npos)
            << simdTierName(tier);
    }
}

} // namespace
} // namespace blas
} // namespace mc
