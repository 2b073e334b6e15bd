/**
 * @file
 * The quantized INT8 GEMM's exactness contract: every integer-SIMD
 * tier must reproduce the scalar reference byte for byte (integer
 * accumulation is exact, so there is no tolerance to hide behind),
 * and the shared requantizer must round-to-nearest-even and saturate
 * exactly as the independent oracle below says it should — for every
 * int32→int8 residue class across a grid of effective scales.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include "blas/fast_gemm.hh"
#include "blas/int8_gemm.hh"
#include "blas/simd_dispatch.hh"
#include "common/random.hh"

namespace mc {
namespace blas {
namespace {

Matrix<std::int8_t>
randomI8(Rng &rng, std::size_t rows, std::size_t cols)
{
    Matrix<std::int8_t> m(rows, cols);
    for (std::size_t i = 0; i < rows; ++i)
        for (std::size_t j = 0; j < cols; ++j)
            m(i, j) = static_cast<std::int8_t>(
                std::lround(rng.uniform(-128.0, 127.0)));
    return m;
}

::testing::AssertionResult
bitIdentical(const Matrix<std::int8_t> &x, const Matrix<std::int8_t> &y)
{
    if (x.rows() != y.rows() || x.cols() != y.cols())
        return ::testing::AssertionFailure() << "shape mismatch";
    if (std::memcmp(x.data(), y.data(), x.rows() * x.cols()) == 0)
        return ::testing::AssertionSuccess();
    for (std::size_t i = 0; i < x.rows(); ++i)
        for (std::size_t j = 0; j < x.cols(); ++j)
            if (x(i, j) != y(i, j))
                return ::testing::AssertionFailure()
                       << "first differing element at (" << i << ", "
                       << j << "): got " << int(y(i, j)) << " want "
                       << int(x(i, j));
    return ::testing::AssertionFailure() << "memcmp/element disagree";
}

struct Shape
{
    std::size_t m, n, k;
};

/** Odd shapes straddling every vector width (2/4-wide k groups, 8/16/
 *  32/64-byte column strides), N = 1 and K = 1 degenerate panels, and
 *  k both multiples and non-multiples of the 4-wide packing group. */
const Shape kShapes[] = {
    {1, 1, 1},   {1, 7, 1},    {4, 1, 5},    {3, 5, 7},
    {7, 15, 9},  {9, 17, 23},  {13, 31, 8},  {21, 33, 19},
    {27, 47, 29}, {67, 129, 65},
};

/** Asymmetric on purpose: zero points exercise the epilogue's
 *  correction terms, and the scales put outputs across [-128, 127]. */
QuantParams
testQuant()
{
    QuantParams qp;
    qp.scaleA = 0.02f;
    qp.scaleB = 0.05f;
    qp.scaleD = 0.25f;
    qp.zeroA = 3;
    qp.zeroB = -5;
    qp.zeroD = 1;
    return qp;
}

FunctionalGemmOptions
tierOptions(SimdTier tier, int threads)
{
    FunctionalGemmOptions opts;
    opts.simd = tier;
    opts.threads = threads;
    opts.blockM = 16;
    opts.blockN = 24;
    opts.blockK = 40;
    return opts;
}

class Int8TierTest : public ::testing::TestWithParam<SimdTier>
{
};

TEST_P(Int8TierTest, MatchesScalarReferenceBitForBit)
{
    const SimdTier tier = GetParam();
    const QuantParams qp = testQuant();
    for (const Shape &s : kShapes) {
        Rng rng(0x18 + s.m * 131 + s.n * 17 + s.k);
        const auto a = randomI8(rng, s.m, s.k);
        const auto b = randomI8(rng, s.k, s.n);
        const auto c = randomI8(rng, s.m, s.n);

        Matrix<std::int8_t> d_ref(s.m, s.n);
        scalarQuantizedGemm(1.25, a, b, -0.5, c, d_ref, qp);

        for (int threads : {1, 2, 8}) {
            Matrix<std::int8_t> d_tier(s.m, s.n);
            fastQuantizedGemm(1.25, a, b, -0.5, c, d_tier, qp,
                              tierOptions(tier, threads));
            EXPECT_TRUE(bitIdentical(d_ref, d_tier))
                << "tier=" << simdTierName(tier) << " shape " << s.m
                << "x" << s.n << "x" << s.k << " threads=" << threads;
        }
    }
}

TEST_P(Int8TierTest, BlockSizesDoNotChangeBytes)
{
    // Integer accumulation is order-insensitive, so any legal blocking
    // must give the same bytes; blockK = 1 (rounded up to the packing
    // group internally) and a k-bigger-than-blockK split both run.
    const SimdTier tier = GetParam();
    const QuantParams qp = testQuant();
    const Shape s{21, 33, 19};
    Rng rng(0xb10c);
    const auto a = randomI8(rng, s.m, s.k);
    const auto b = randomI8(rng, s.k, s.n);
    const auto c = randomI8(rng, s.m, s.n);

    Matrix<std::int8_t> d_ref(s.m, s.n);
    scalarQuantizedGemm(0.75, a, b, 0.25, c, d_ref, qp);

    const int blocks[][3] = {{1, 1, 1}, {8, 8, 4}, {16, 24, 40},
                             {64, 128, 256}};
    for (const auto &blk : blocks) {
        FunctionalGemmOptions opts;
        opts.simd = tier;
        opts.threads = 2;
        opts.blockM = blk[0];
        opts.blockN = blk[1];
        opts.blockK = blk[2];
        Matrix<std::int8_t> d(s.m, s.n);
        fastQuantizedGemm(0.75, a, b, 0.25, c, d, qp, opts);
        EXPECT_TRUE(bitIdentical(d_ref, d))
            << "tier=" << simdTierName(tier) << " blocks=" << blk[0]
            << "/" << blk[1] << "/" << blk[2];
    }
}

TEST_P(Int8TierTest, ExtremeZeroPointsAndBetaZero)
{
    // Zero points at the representable edges maximize the corrected
    // accumulator's magnitude; beta = 0 must ignore C entirely.
    const SimdTier tier = GetParam();
    QuantParams qp = testQuant();
    qp.zeroA = -128;
    qp.zeroB = 127;
    qp.zeroD = -128;
    const Shape s{13, 31, 8};
    Rng rng(0xedfe);
    const auto a = randomI8(rng, s.m, s.k);
    const auto b = randomI8(rng, s.k, s.n);
    const auto c = randomI8(rng, s.m, s.n);

    Matrix<std::int8_t> d_ref(s.m, s.n);
    scalarQuantizedGemm(1.0, a, b, 0.0, c, d_ref, qp);
    Matrix<std::int8_t> d(s.m, s.n);
    fastQuantizedGemm(1.0, a, b, 0.0, c, d, qp, tierOptions(tier, 2));
    EXPECT_TRUE(bitIdentical(d_ref, d))
        << "tier=" << simdTierName(tier);
}

INSTANTIATE_TEST_SUITE_P(
    AvailableTiers, Int8TierTest,
    ::testing::ValuesIn(availableSimdTiers()),
    [](const ::testing::TestParamInfo<SimdTier> &info) {
        return std::string(simdTierName(info.param));
    });

// ---- The requantizer ------------------------------------------------------

/** Independent round-to-nearest-even + saturate oracle: spelled with
 *  explicit floor/frac/tie logic so it shares nothing with the
 *  nearbyint-based production code it checks. */
std::int8_t
oracleRequantize(std::int32_t acc, double eff_scale, double beta,
                 std::int8_t c, const QuantParams &qp)
{
    const double value =
        eff_scale * static_cast<double>(acc) +
        beta * (static_cast<double>(c) - static_cast<double>(qp.zeroD));
    const double f = std::floor(value);
    const double frac = value - f;
    double rounded;
    if (frac > 0.5)
        rounded = f + 1.0;
    else if (frac < 0.5)
        rounded = f;
    else
        rounded = (std::fmod(f, 2.0) == 0.0) ? f : f + 1.0;
    const double shifted = rounded + static_cast<double>(qp.zeroD);
    if (shifted < -128.0)
        return std::int8_t{-128};
    if (shifted > 127.0)
        return std::int8_t{127};
    return static_cast<std::int8_t>(shifted);
}

TEST(Requantize, MatchesOracleOnEveryResidueClass)
{
    // Every int32 residue class mod 256 (and then some), across a
    // scale grid chosen to hit exact .5 ties (0.5, 0.25, 0.0625) and
    // non-dyadic fractions (1/3, 0.1), for several zero points.
    const double scales[] = {1.0, 0.5, 0.25, 0.0625, 0.1,
                             1.0 / 3.0, 2.0};
    const std::int32_t zero_ds[] = {-3, 0, 5};
    for (double eff : scales) {
        for (std::int32_t zd : zero_ds) {
            QuantParams qp;
            qp.zeroD = zd;
            for (std::int32_t acc = -1024; acc <= 1024; ++acc) {
                const std::int8_t got =
                    requantizeI8(acc, eff, 0.0, std::int8_t{0}, qp);
                const std::int8_t want =
                    oracleRequantize(acc, eff, 0.0, std::int8_t{0}, qp);
                ASSERT_EQ(int(got), int(want))
                    << "acc=" << acc << " eff=" << eff << " zeroD=" << zd;
            }
        }
    }
}

TEST(Requantize, TiesGoToEven)
{
    QuantParams qp; // zeroD = 0
    // eff = 0.5: odd accumulators land exactly on .5 boundaries.
    EXPECT_EQ(int(requantizeI8(1, 0.5, 0.0, std::int8_t{0}, qp)), 0);
    EXPECT_EQ(int(requantizeI8(3, 0.5, 0.0, std::int8_t{0}, qp)), 2);
    EXPECT_EQ(int(requantizeI8(5, 0.5, 0.0, std::int8_t{0}, qp)), 2);
    EXPECT_EQ(int(requantizeI8(-1, 0.5, 0.0, std::int8_t{0}, qp)), 0);
    EXPECT_EQ(int(requantizeI8(-3, 0.5, 0.0, std::int8_t{0}, qp)), -2);
    EXPECT_EQ(int(requantizeI8(-5, 0.5, 0.0, std::int8_t{0}, qp)), -2);
    // The beta term can create the tie as well: 0.5 * (7 - 0) = 3.5.
    EXPECT_EQ(int(requantizeI8(0, 1.0, 0.5, std::int8_t{7}, qp)), 4);
    EXPECT_EQ(int(requantizeI8(0, 1.0, 0.5, std::int8_t{5}, qp)), 2);
}

TEST(Requantize, SaturatesAtTheEdges)
{
    QuantParams qp;
    const std::int32_t max32 = std::numeric_limits<std::int32_t>::max();
    const std::int32_t min32 = std::numeric_limits<std::int32_t>::min();
    EXPECT_EQ(int(requantizeI8(max32, 1.0, 0.0, std::int8_t{0}, qp)),
              127);
    EXPECT_EQ(int(requantizeI8(min32, 1.0, 0.0, std::int8_t{0}, qp)),
              -128);
    // One past the representable edge saturates; the edge itself fits.
    EXPECT_EQ(int(requantizeI8(128, 1.0, 0.0, std::int8_t{0}, qp)), 127);
    EXPECT_EQ(int(requantizeI8(127, 1.0, 0.0, std::int8_t{0}, qp)), 127);
    EXPECT_EQ(int(requantizeI8(-129, 1.0, 0.0, std::int8_t{0}, qp)),
              -128);
    EXPECT_EQ(int(requantizeI8(-128, 1.0, 0.0, std::int8_t{0}, qp)),
              -128);
    // 127.5 rounds (to even) to 128 — which must saturate to 127, and
    // -128.5 rounds to -128 exactly at the edge.
    EXPECT_EQ(int(requantizeI8(255, 0.5, 0.0, std::int8_t{0}, qp)), 127);
    EXPECT_EQ(int(requantizeI8(-257, 0.5, 0.0, std::int8_t{0}, qp)),
              -128);
    // A zero point shifts the saturation window.
    qp.zeroD = 100;
    EXPECT_EQ(int(requantizeI8(50, 1.0, 0.0, std::int8_t{0}, qp)), 127);
    qp.zeroD = -100;
    EXPECT_EQ(int(requantizeI8(-50, 1.0, 0.0, std::int8_t{0}, qp)),
              -128);
}

TEST(Requantize, ExhaustiveOutputRange)
{
    // With eff = 1 and zeroD = 0, accumulators -130..130 must map onto
    // every int8 output value exactly once inside [-128, 127] and
    // clamp outside — all 2^8 output codes witnessed.
    QuantParams qp;
    bool seen[256] = {};
    for (std::int32_t acc = -130; acc <= 130; ++acc) {
        const int got =
            int(requantizeI8(acc, 1.0, 0.0, std::int8_t{0}, qp));
        const int want =
            acc < -128 ? -128 : (acc > 127 ? 127 : int(acc));
        ASSERT_EQ(got, want) << "acc=" << acc;
        seen[got + 128] = true;
    }
    for (int v = 0; v < 256; ++v)
        EXPECT_TRUE(seen[v]) << "output code " << (v - 128)
                             << " never produced";
}

} // namespace
} // namespace blas
} // namespace mc
