/**
 * @file
 * Every SIMD tier of the fast functional-GEMM backend must produce
 * results bit-identical to the scalar tier — for all five datatype
 * combinations, at odd shapes that straddle every vector width and
 * block size, with per-step f16 rounding on and off, and at every
 * thread count. The scalar tier itself is pinned to the retained
 * scalar reference in fast_gemm_test.cc, so together the two suites
 * tie every tier to the original arithmetic.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "blas/fast_gemm.hh"
#include "blas/functional.hh"
#include "blas/simd_dispatch.hh"
#include "blas/simd_kernels.hh"
#include "common/random.hh"

namespace mc {
namespace blas {
namespace {

template <typename T>
Matrix<T>
randomMatrix(Rng &rng, std::size_t rows, std::size_t cols)
{
    Matrix<T> m(rows, cols);
    for (std::size_t i = 0; i < rows; ++i)
        for (std::size_t j = 0; j < cols; ++j)
            m(i, j) = T(static_cast<float>(rng.uniform(-1.0, 1.0)));
    return m;
}

template <typename T>
::testing::AssertionResult
bitIdentical(const Matrix<T> &x, const Matrix<T> &y)
{
    if (x.rows() != y.rows() || x.cols() != y.cols())
        return ::testing::AssertionFailure() << "shape mismatch";
    if (std::memcmp(x.data(), y.data(),
                    x.rows() * x.cols() * sizeof(T)) == 0)
        return ::testing::AssertionSuccess();
    for (std::size_t i = 0; i < x.rows(); ++i)
        for (std::size_t j = 0; j < x.cols(); ++j)
            if (std::memcmp(&x(i, j), &y(i, j), sizeof(T)) != 0)
                return ::testing::AssertionFailure()
                       << "first differing element at (" << i << ", "
                       << j << ")";
    return ::testing::AssertionFailure() << "memcmp/element disagree";
}

struct Shape
{
    std::size_t m, n, k;
};

/** n values straddle every vector width (4, 8, 16 f32 lanes) with odd
 *  tails; the last shape crosses the narrow block sizes as well. */
const Shape kShapes[] = {
    {1, 1, 1},   {3, 5, 7},     {7, 15, 9},  {9, 17, 23},
    {13, 31, 8}, {21, 33, 19},  {27, 47, 29}, {67, 129, 65},
};

/** Shapes for the wide blocks: n = 128 is exactly one 8-chain group
 *  on avx512, and 129, 200 (panels 136 + 64) and 257 (136 + 121)
 *  leave every smaller chain group and a scalar tail behind it. */
const Shape kWideShapes[] = {
    {9, 128, 37}, {13, 129, 70}, {6, 200, 129}, {11, 257, 65},
};

/** One cache-blocking configuration and the shapes run under it. */
struct BlockConfig
{
    const char *name;
    int blockM, blockN, blockK;
    std::span<const Shape> shapes;
};

/** blockN = 24 cuts many short column panels; blockN = 136 reaches
 *  the round_each_step kernel's multi-chain groups (8 vectors are 128
 *  columns on avx512) that a 24-column panel never fills. */
const BlockConfig kBlockConfigs[] = {
    {"narrow", 16, 24, 40, kShapes},
    {"wide", 4, 136, 64, kWideShapes},
};

FunctionalGemmOptions
tierOptions(SimdTier tier, int threads, const BlockConfig &blocks)
{
    FunctionalGemmOptions opts;
    opts.simd = tier;
    opts.threads = threads;
    opts.blockM = blocks.blockM;
    opts.blockN = blocks.blockN;
    opts.blockK = blocks.blockK;
    return opts;
}

class SimdTierTest : public ::testing::TestWithParam<SimdTier>
{
};

/** @p tier against the scalar tier on one operand set, at threads
 *  1/2/8 under @p blocks. */
template <typename TCD, typename TAB, typename TAcc>
void
expectTierMatchesScalarTierOn(SimdTier tier, bool round_each_step,
                              const BlockConfig &blocks,
                              const Matrix<TAB> &a, const Matrix<TAB> &b,
                              const Matrix<TCD> &c)
{
    Matrix<TCD> d_scalar(c.rows(), c.cols());
    referenceGemm<TCD, TAB, TAcc>(
        1.25, a, b, -0.5, c, d_scalar, round_each_step,
        tierOptions(SimdTier::Scalar, 1, blocks));

    for (int threads : {1, 2, 8}) {
        Matrix<TCD> d_tier(c.rows(), c.cols());
        referenceGemm<TCD, TAB, TAcc>(
            1.25, a, b, -0.5, c, d_tier, round_each_step,
            tierOptions(tier, threads, blocks));
        EXPECT_TRUE(bitIdentical(d_scalar, d_tier))
            << "tier=" << simdTierName(tier) << " blocks=" << blocks.name
            << " shape " << a.rows() << "x" << b.cols() << "x"
            << a.cols() << " threads=" << threads
            << " round_each_step=" << round_each_step;
    }
}

template <typename TCD, typename TAB, typename TAcc>
void
expectTierMatchesScalarTier(SimdTier tier, bool round_each_step)
{
    for (const BlockConfig &blocks : kBlockConfigs) {
        for (const Shape &s : blocks.shapes) {
            Rng rng(0xca11 + s.m * 131 + s.n * 17 + s.k);
            const auto a = randomMatrix<TAB>(rng, s.m, s.k);
            const auto b = randomMatrix<TAB>(rng, s.k, s.n);
            const auto c = randomMatrix<TCD>(rng, s.m, s.n);
            expectTierMatchesScalarTierOn<TCD, TAB, TAcc>(
                tier, round_each_step, blocks, a, b, c);
        }
    }
}

/**
 * HGEMM operands that drive the round_each_step chains through the
 * f16 special cases. Row i of A (and of C) takes class i % 4:
 *
 *  0. magnitudes up to 65504, so running sums round past the largest
 *     finite half to +-inf;
 *  1. ordinary values with +inf at k = 1 and -inf at k = 3, so every
 *     column whose B(1, j) and B(3, j) share a sign meets inf - inf and
 *     turns NaN (and the others stay infinite);
 *  2. magnitudes below 2^-17, so products and sums land in the f16
 *     subnormal range and round there;
 *  3. ordinary values in (-1, 1).
 */
struct SpecialOperands
{
    Matrix<fp::Half> a, b, c;
};

SpecialOperands
specialHalfOperands(std::size_t m, std::size_t n, std::size_t k)
{
    Rng rng(0x5bec1a1);
    auto value = [&](std::size_t row_class) {
        const double sign = rng.uniform(0.0, 1.0) < 0.5 ? -1.0 : 1.0;
        switch (row_class) {
          case 0: return fp::Half(sign * rng.uniform(8192.0, 65504.0));
          case 2: return fp::Half(sign * rng.uniform(0.0, 0x1p-17));
          default: return fp::Half(rng.uniform(-1.0, 1.0));
        }
    };
    SpecialOperands ops{Matrix<fp::Half>(m, k), Matrix<fp::Half>(k, n),
                        Matrix<fp::Half>(m, n)};
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t kk = 0; kk < k; ++kk)
            ops.a(i, kk) = value(i % 4);
        for (std::size_t j = 0; j < n; ++j)
            ops.c(i, j) = value(i % 4);
        if (i % 4 == 1 && k > 3) {
            ops.a(i, 1) = fp::Half::fromBits(0x7c00);
            ops.a(i, 3) = fp::Half::fromBits(0xfc00);
        }
    }
    for (std::size_t kk = 0; kk < k; ++kk)
        for (std::size_t j = 0; j < n; ++j)
            ops.b(kk, j) = value(3);
    return ops;
}

/** True when @p d holds at least one infinity, one NaN and one
 *  subnormal: proof that the special operands reached every case. */
::testing::AssertionResult
coversSpecialValues(const Matrix<fp::Half> &d)
{
    bool inf = false, nan = false, subnormal = false;
    for (std::size_t i = 0; i < d.rows(); ++i) {
        for (std::size_t j = 0; j < d.cols(); ++j) {
            const std::uint16_t bits = d(i, j).bits();
            inf |= d(i, j).isInf();
            nan |= d(i, j).isNan();
            subnormal |= (bits & 0x7c00) == 0 && (bits & 0x3ff) != 0;
        }
    }
    if (inf && nan && subnormal)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "inf=" << inf << " nan=" << nan
           << " subnormal=" << subnormal;
}

TEST_P(SimdTierTest, Dgemm)
{
    expectTierMatchesScalarTier<double, double, double>(GetParam(),
                                                        false);
}

TEST_P(SimdTierTest, Sgemm)
{
    expectTierMatchesScalarTier<float, float, float>(GetParam(), false);
}

TEST_P(SimdTierTest, HgemmRoundsEachStep)
{
    expectTierMatchesScalarTier<fp::Half, fp::Half, float>(GetParam(),
                                                           true);
}

TEST_P(SimdTierTest, HgemmSpecialValuesThroughTheChain)
{
    // The hardware narrow's inf, NaN and subnormal cases inside the
    // GEMM chain, not only lane by lane (simd_convert_test.cc).
    for (const BlockConfig &blocks : kBlockConfigs) {
        const SpecialOperands ops = specialHalfOperands(8, 200, 48);
        expectTierMatchesScalarTierOn<fp::Half, fp::Half, float>(
            GetParam(), true, blocks, ops.a, ops.b, ops.c);
    }
}

TEST_P(SimdTierTest, Hhs)
{
    expectTierMatchesScalarTier<fp::Half, fp::Half, float>(GetParam(),
                                                           false);
}

TEST_P(SimdTierTest, Hss)
{
    expectTierMatchesScalarTier<float, fp::Half, float>(GetParam(),
                                                        false);
}

TEST_P(SimdTierTest, Bf16OperandPacking)
{
    expectTierMatchesScalarTier<float, fp::BFloat16, float>(GetParam(),
                                                            false);
}

/** @p tier at threads 1/2/8, the scalar tier, and scalarReferenceGemm
 *  on one operand set under one explicit blocking: all bit-identical. */
template <typename TCD, typename TAB, typename TAcc>
void
expectTierMatchesBothReferences(SimdTier tier, bool round_each_step,
                                int block_m, int block_n, int block_k,
                                const Matrix<TAB> &a, const Matrix<TAB> &b,
                                const Matrix<TCD> &c, const char *what)
{
    const BlockConfig blocks{what, block_m, block_n, block_k, {}};
    Matrix<TCD> d_ref(c.rows(), c.cols());
    scalarReferenceGemm<TCD, TAB, TAcc>(1.25, a, b, -0.5, c, d_ref,
                                        round_each_step);
    Matrix<TCD> d_scalar(c.rows(), c.cols());
    referenceGemm<TCD, TAB, TAcc>(1.25, a, b, -0.5, c, d_scalar,
                                  round_each_step,
                                  tierOptions(SimdTier::Scalar, 1, blocks));
    const auto context = [&](int threads) {
        return ::testing::Message()
               << "tier=" << simdTierName(tier) << " case=\"" << what
               << "\" shape " << a.rows() << "x" << b.cols() << "x"
               << a.cols() << " blocks " << block_m << "x" << block_n
               << "x" << block_k << " threads=" << threads
               << " round_each_step=" << round_each_step;
    };
    EXPECT_TRUE(bitIdentical(d_ref, d_scalar)) << context(1);
    for (int threads : {1, 2, 8}) {
        Matrix<TCD> d_tier(c.rows(), c.cols());
        referenceGemm<TCD, TAB, TAcc>(1.25, a, b, -0.5, c, d_tier,
                                      round_each_step,
                                      tierOptions(tier, threads, blocks));
        EXPECT_TRUE(bitIdentical(d_ref, d_tier)) << context(threads);
    }
}

/** One register-block edge: a shape under one explicit blocking. */
struct EdgeCase
{
    const char *what;
    Shape shape;
    int blockM, blockN, blockK;
};

/** The edges of a tier's MR x NR register block: every m % MR at a
 *  row-block edge, n = NR - 1, NR, NR + 1 inside one block, a blockN
 *  that is not a multiple of NR and one below NR, and k = 1. */
std::vector<EdgeCase>
registerBlockEdges(std::size_t mr, std::size_t nr)
{
    const int MR = static_cast<int>(mr);
    const int NR = static_cast<int>(nr);
    const auto shape = [](int m, int n, int k) {
        return Shape{static_cast<std::size_t>(m),
                     static_cast<std::size_t>(n),
                     static_cast<std::size_t>(k)};
    };
    std::vector<EdgeCase> cases;
    // blockM = 2 MR + rem leaves rem rows in the last group of every
    // block, and m = 2 blockM + rem a last block of rem rows.
    for (int rem = 1; rem < MR; ++rem) {
        const int bm = 2 * MR + rem;
        cases.push_back({"m % MR at a row-block edge",
                         shape(2 * bm + rem, NR + 3, 9), bm, 2 * NR, 16});
    }
    for (int dn : {-1, 0, 1})
        cases.push_back({"n = NR +- 1 inside a block",
                         shape(MR + 1, NR + dn, 11), 2 * MR, 2 * NR, 8});
    cases.push_back({"blockN not a multiple of NR",
                     shape(MR + 2, 3 * NR + 5, 13), 2 * MR,
                     NR + NR / 2 + 1, 8});
    cases.push_back({"blockN < NR", shape(MR + 2, 3 * NR + 5, 13), 2 * MR,
                     std::max(1, NR / 2 - 1), 8});
    cases.push_back({"k = 1", shape(2 * MR + 1, NR + 1, 1), MR, NR, 4});
    return cases;
}

template <typename TCD, typename TAB, typename TAcc>
void
expectRegisterBlockEdgesMatch(SimdTier tier, bool round_each_step)
{
    const SimdKernels &ker = simdKernels(tier);
    for (const EdgeCase &e : registerBlockEdges(ker.mr, ker.nr<TAcc>())) {
        const Shape &s = e.shape;
        Rng rng(0xed9e + s.m * 131 + s.n * 17 + s.k);
        const auto a = randomMatrix<TAB>(rng, s.m, s.k);
        const auto b = randomMatrix<TAB>(rng, s.k, s.n);
        const auto c = randomMatrix<TCD>(rng, s.m, s.n);
        expectTierMatchesBothReferences<TCD, TAB, TAcc>(
            tier, round_each_step, e.blockM, e.blockN, e.blockK, a, b, c,
            e.what);
    }
}

TEST_P(SimdTierTest, RegisterBlockEdges)
{
    expectRegisterBlockEdgesMatch<float, float, float>(GetParam(), false);
    expectRegisterBlockEdgesMatch<double, double, double>(GetParam(),
                                                          false);
    expectRegisterBlockEdgesMatch<fp::Half, fp::Half, float>(GetParam(),
                                                             true);
}

/** Rows of A holding +inf, and +inf and -inf, with n = NR + 1: the
 *  zero-padded B columns of the last micro-panel turn those rows'
 *  padding lanes into NaN (inf * 0), which must never reach D. */
template <typename T>
void
expectInfRowsMatch(SimdTier tier)
{
    const SimdKernels &ker = simdKernels(tier);
    const std::size_t m = 2 * ker.mr + 1;
    const std::size_t n = ker.nr<T>() + 1;
    const std::size_t k = 5;
    Rng rng(0x1f1f);
    auto a = randomMatrix<T>(rng, m, k);
    const auto b = randomMatrix<T>(rng, k, n);
    const auto c = randomMatrix<T>(rng, m, n);
    const T inf = std::numeric_limits<T>::infinity();
    a(0, 0) = inf;
    a(1, 1) = inf;
    a(1, 3) = -inf;
    a(m - 1, 2) = -inf;
    expectTierMatchesBothReferences<T, T, T>(
        tier, false, static_cast<int>(m), static_cast<int>(n), 4, a, b, c,
        "inf in A, NaN in the padding lanes");

    Matrix<T> d(m, n);
    scalarReferenceGemm<T, T, T>(1.25, a, b, -0.5, c, d, false);
    bool finite_rows = true;
    for (std::size_t i = 2; i + 1 < m; ++i)
        for (std::size_t j = 0; j < n; ++j)
            finite_rows &= std::isfinite(d(i, j));
    EXPECT_TRUE(finite_rows) << "rows without inf must stay finite";
    EXPECT_TRUE(std::isinf(d(0, 0)));
}

TEST_P(SimdTierTest, InfInAPaddingLanesNeverReachD)
{
    expectInfRowsMatch<float>(GetParam());
    expectInfRowsMatch<double>(GetParam());
}

/** The scalar tier against scalarReferenceGemm on one operand set,
 *  with per-step rounding off and on. */
void
expectScalarTierMatchesReference(const Matrix<fp::Half> &a,
                                 const Matrix<fp::Half> &b,
                                 const Matrix<fp::Half> &c,
                                 const BlockConfig &blocks)
{
    for (const bool round_each_step : {false, true}) {
        Matrix<fp::Half> d_ref(c.rows(), c.cols());
        Matrix<fp::Half> d_scalar_tier(c.rows(), c.cols());
        scalarReferenceGemm<fp::Half, fp::Half, float>(
            1.25, a, b, -0.5, c, d_ref, round_each_step);
        referenceGemm<fp::Half, fp::Half, float>(
            1.25, a, b, -0.5, c, d_scalar_tier, round_each_step,
            tierOptions(SimdTier::Scalar, 1, blocks));
        EXPECT_TRUE(bitIdentical(d_ref, d_scalar_tier))
            << "blocks=" << blocks.name << " shape " << a.rows() << "x"
            << b.cols() << "x" << a.cols()
            << " round_each_step=" << round_each_step;
    }
}

/** The tier knob must not leak into the retained scalar reference:
 *  the scalar tier itself reproduces scalarReferenceGemm exactly. */
TEST(SimdTierAnchor, ScalarTierMatchesScalarReference)
{
    const Shape s{27, 47, 29};
    Rng rng(0xbeef);
    const auto a = randomMatrix<fp::Half>(rng, s.m, s.k);
    const auto b = randomMatrix<fp::Half>(rng, s.k, s.n);
    const auto c = randomMatrix<fp::Half>(rng, s.m, s.n);
    expectScalarTierMatchesReference(a, b, c, kBlockConfigs[0]);

    const BlockConfig &wide = kBlockConfigs[1];
    for (const Shape &w : wide.shapes) {
        Rng wrng(0xbeef + w.n);
        const auto wa = randomMatrix<fp::Half>(wrng, w.m, w.k);
        const auto wb = randomMatrix<fp::Half>(wrng, w.k, w.n);
        const auto wc = randomMatrix<fp::Half>(wrng, w.m, w.n);
        expectScalarTierMatchesReference(wa, wb, wc, wide);
    }
}

TEST(SimdTierAnchor, SpecialValuesMatchScalarReference)
{
    const SpecialOperands ops = specialHalfOperands(8, 200, 48);
    for (const BlockConfig &blocks : kBlockConfigs)
        expectScalarTierMatchesReference(ops.a, ops.b, ops.c, blocks);

    // The operands really do reach every special case of the chain.
    Matrix<fp::Half> d(ops.c.rows(), ops.c.cols());
    scalarReferenceGemm<fp::Half, fp::Half, float>(
        1.25, ops.a, ops.b, -0.5, ops.c, d, true);
    EXPECT_TRUE(coversSpecialValues(d));
}

INSTANTIATE_TEST_SUITE_P(
    AvailableTiers, SimdTierTest,
    ::testing::ValuesIn(availableSimdTiers()),
    [](const ::testing::TestParamInfo<SimdTier> &info) {
        return std::string(simdTierName(info.param));
    });

} // namespace
} // namespace blas
} // namespace mc
