/**
 * @file
 * Tests of the functional GEMM verification harness (the paper's
 * ones/identity scheme plus randomized checks) across every combo and
 * both execution paths, the sampled-row rule, and the bitwise
 * comparison that fails on a single flipped ULP.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <vector>

#include "blas/batched_gemm.hh"
#include "blas/functional.hh"
#include "blas/int8_gemm.hh"
#include "blas/verify.hh"
#include "common/random.hh"

namespace mc {
namespace blas {
namespace {

GemmConfig
squareConfig(GemmCombo combo, std::size_t n, double alpha = 1.0,
             double beta = 1.0)
{
    GemmConfig cfg;
    cfg.combo = combo;
    cfg.m = cfg.n = cfg.k = n;
    cfg.alpha = alpha;
    cfg.beta = beta;
    return cfg;
}

/** The fast path's contract is bit-exactness: a passing run reports
 *  no mismatch, zero ULP and a zero tolerance. */
void
expectBitExact(const VerifyResult &result)
{
    EXPECT_TRUE(result.passed) << result.detail;
    EXPECT_EQ(result.mismatches, 0u) << result.detail;
    EXPECT_EQ(result.maxUlp, 0u) << result.detail;
    EXPECT_EQ(result.tolerance, 0.0) << result.detail;
}

class VerifyAllCombos : public ::testing::TestWithParam<GemmCombo>
{};

TEST_P(VerifyAllCombos, PaperSchemePassesAt64)
{
    const VerifyResult result =
        verifyGemm(squareConfig(GetParam(), 64));
    EXPECT_TRUE(result.passed) << result.detail;
}

TEST_P(VerifyAllCombos, PaperSchemePassesWithScaling)
{
    // The paper's perf runs use alpha = beta = 0.1.
    const VerifyResult result =
        verifyGemm(squareConfig(GetParam(), 48, 0.1, 0.1));
    EXPECT_TRUE(result.passed) << result.detail;
}

TEST_P(VerifyAllCombos, RandomSchemePasses)
{
    expectBitExact(verifyGemm(squareConfig(GetParam(), 96),
                              VerifyScheme::Random, 1234));
}

TEST_P(VerifyAllCombos, NonSquareNonMultiplePasses)
{
    GemmConfig cfg;
    cfg.combo = GetParam();
    cfg.m = 40;
    cfg.n = 72;
    cfg.k = 56;
    cfg.alpha = 0.5;
    cfg.beta = 2.0;
    expectBitExact(verifyGemm(cfg, VerifyScheme::Random, 99));
}

TEST_P(VerifyAllCombos, BatchedConfigsCheckCappedEntriesInBothSchemes)
{
    for (const VerifyScheme scheme :
         {VerifyScheme::PaperOnesIdentity, VerifyScheme::Random}) {
        GemmConfig cfg = squareConfig(GetParam(), 40, 0.5, 2.0);
        cfg.batchCount = 6;
        const VerifyResult batched = verifyGemm(cfg, scheme, 77);
        expectBitExact(batched);
        EXPECT_EQ(batched.batchEntries, kMaxVerifyBatchEntries);
        EXPECT_NE(batched.detail.find("batch 4 (of 6)"), std::string::npos)
            << batched.detail;
        EXPECT_NE(batched.detail.find("strided-batched"), std::string::npos)
            << batched.detail;

        cfg.batchCount = 1;
        const VerifyResult single = verifyGemm(cfg, scheme, 77);
        expectBitExact(single);
        EXPECT_EQ(single.batchEntries, 1u);
        EXPECT_EQ(single.detail.find("batch"), std::string::npos)
            << single.detail;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Combos, VerifyAllCombos, ::testing::ValuesIn(allLibraryCombos),
    [](const ::testing::TestParamInfo<GemmCombo> &info) {
        return std::string(comboInfo(info.param).name);
    });

/** The random scheme's int8 operands keep most outputs off the +-127
 *  clamp at the paper's alpha = 0.1, at the smallest and the largest
 *  verified depth: a saturated element cannot show a kernel fault. */
TEST(VerifyRandomScheme, FewInt8OutputsSaturate)
{
    const std::size_t m = 16;
    for (std::size_t n : {std::size_t{32}, std::size_t{2048}}) {
        const QuantParams qp;
        const int span =
            randomSchemeI8HalfWidth(n, effectiveQuantScale(0.1, qp));
        Rng rng(n);
        const auto draw = [&](std::size_t rows, std::size_t cols, int r) {
            Matrix<std::int8_t> x(rows, cols);
            for (std::size_t i = 0; i < rows; ++i)
                for (std::size_t j = 0; j < cols; ++j)
                    x(i, j) = static_cast<std::int8_t>(std::clamp<long>(
                        std::lround(rng.uniform(-r, r)), -128, 127));
            return x;
        };
        const auto b = draw(n, n, span);
        const auto a = draw(m, n, span);
        const auto c = draw(m, n, 128);
        Matrix<std::int8_t> d(m, n);
        scalarQuantizedGemm(0.1, a, b, 0.1, c, d, qp);
        std::size_t clamped = 0;
        for (std::size_t i = 0; i < m; ++i)
            for (std::size_t j = 0; j < n; ++j)
                clamped += d(i, j) == 127 || d(i, j) == -128;
        EXPECT_LE(clamped, m * n / 4) << "n=" << n << " span=" << span;
        EXPECT_GE(span, 2) << "n=" << n;
    }
}

TEST(Verify, PathSelectionIsReported)
{
    EXPECT_TRUE(verifyGemm(squareConfig(GemmCombo::Sgemm, 64))
                    .usedMatrixCores);
    EXPECT_FALSE(verifyGemm(squareConfig(GemmCombo::Hgemm, 64))
                     .usedMatrixCores);
    // Tiny mixed-precision problems verify through the SIMD fallback.
    EXPECT_FALSE(verifyGemm(squareConfig(GemmCombo::Hhs, 16))
                     .usedMatrixCores);
}

TEST(Verify, EmulatedHgemmPathVerifiesToo)
{
    GemmConfig cfg = squareConfig(GemmCombo::Hgemm, 64, 0.1, 0.1);
    cfg.forceMatrixCorePath = true;
    const VerifyResult result =
        verifyGemm(cfg, VerifyScheme::Random, 7);
    EXPECT_TRUE(result.usedMatrixCores);
    EXPECT_TRUE(result.passed) << result.detail;
}

TEST(Verify, DetailStringNamesComboAndPath)
{
    const VerifyResult result =
        verifyGemm(squareConfig(GemmCombo::Dgemm, 32));
    EXPECT_NE(result.detail.find("dgemm"), std::string::npos);
    EXPECT_NE(result.detail.find("MatrixCore"), std::string::npos);
    EXPECT_EQ(result.tolerance, 0.0);
}

TEST(Verify, ReportsUlpAndErrorIndex)
{
    const VerifyResult result = verifyGemm(
        squareConfig(GemmCombo::Hhs, 64), VerifyScheme::Random, 21);
    // The sampled rows match the scalar MFMA-chain reference bit for
    // bit, and the detail string still carries the ULP and argmax
    // fields an operator reads on a failure.
    expectBitExact(result);
    EXPECT_NE(result.detail.find("max ULP = 0"), std::string::npos)
        << result.detail;
    EXPECT_NE(result.detail.find("at ("), std::string::npos);
    EXPECT_NE(result.detail.find("8 sampled rows"), std::string::npos)
        << result.detail;
}

TEST(Verify, ExactPathsReportZeroUlp)
{
    // The fast output matches the scalar reference on the sampled
    // rows, and the paper scheme's closed form, evaluated in the
    // kernel's own arithmetic, matches every element bitwise.
    const VerifyResult result =
        verifyGemm(squareConfig(GemmCombo::Dgemm, 32));
    expectBitExact(result);
    EXPECT_NE(result.detail.find("closed form"), std::string::npos)
        << result.detail;
}

TEST(VerifySampleRows, AlwaysHoldsTheBlockEdges)
{
    for (const std::size_t m : {9, 40, 64, 96, 200, 2048}) {
        for (const std::size_t block_m : {1, 7, 32, 64, 4096}) {
            for (const std::uint64_t seed : {1ull, 0x5eedull}) {
                const std::vector<std::size_t> rows =
                    verifySampleRows(m, block_m, seed);
                const std::size_t bm = std::min(block_m, m);
                const std::set<std::size_t> unique(rows.begin(), rows.end());
                EXPECT_EQ(rows.size(), kVerifySampleRows);
                EXPECT_EQ(unique.size(), rows.size()) << "distinct";
                EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
                EXPECT_LT(rows.back(), m);
                for (const std::size_t want :
                     {std::size_t{0}, bm - 1, (m - 1) / bm * bm, m - 1})
                    EXPECT_TRUE(unique.count(want))
                        << "m=" << m << " block_m=" << block_m
                        << " missing row " << want;
                EXPECT_EQ(rows, verifySampleRows(m, block_m, seed))
                    << "deterministic per seed";
            }
        }
    }
}

TEST(VerifySampleRows, SmallEntriesCheckEveryRow)
{
    for (std::size_t m = 1; m <= kVerifySampleRows; ++m) {
        std::vector<std::size_t> all(m);
        for (std::size_t i = 0; i < m; ++i)
            all[i] = i;
        EXPECT_EQ(verifySampleRows(m, 32, 3), all);
    }
}

TEST(VerifySampleRows, SeedsPickDifferentRows)
{
    EXPECT_NE(verifySampleRows(2048, 32, 1),
              verifySampleRows(2048, 32, 2));
}

/** One ULP up or down in magnitude: the low storage bit flipped. */
template <typename T>
T
flipLowBit(T v)
{
    if constexpr (std::is_same_v<T, fp::Half>)
        return fp::Half::fromBits(static_cast<std::uint16_t>(v.bits() ^ 1));
    else
        return std::bit_cast<T>(std::bit_cast<std::uint32_t>(v) ^ 1u);
}

/**
 * Run the fast SIMD path over @p entries stacked entries, check the
 * sampled rows against scalarReferenceGemm (bit-exact), then flip one
 * ULP of the fast output in each sampled row in turn: every flip must
 * fail with its own (row, col), while a flip outside the sample is not
 * seen.
 */
template <typename TCD, typename TAB, typename TAcc>
void
expectSampledFlipsFail(bool round_each_step)
{
    const std::size_t m = 96, n = 40, k = 33, entries = 2, block_m = 32;
    Rng rng(0xf11b);
    Matrix<TAB> a(entries * m, k), b(k, n);
    Matrix<TCD> c(entries * m, n), d(entries * m, n);
    for (std::size_t i = 0; i < a.rows() * a.cols(); ++i)
        a.data()[i] = TAB(static_cast<float>(rng.uniform(-1.0, 1.0)));
    for (std::size_t i = 0; i < b.rows() * b.cols(); ++i)
        b.data()[i] = TAB(static_cast<float>(rng.uniform(-1.0, 1.0)));
    for (std::size_t i = 0; i < c.rows() * c.cols(); ++i)
        c.data()[i] = TCD(static_cast<float>(rng.uniform(-1.0, 1.0)));
    FunctionalGemmOptions func;
    func.blockM = static_cast<int>(block_m);
    fastBatchedGemm<TCD, TAB, TAcc>(entries, 0.5, a.data(), m * k,
                                    b.data(), 0, 2.0, c.data(), m * n,
                                    d.data(), m * n, m, n, k,
                                    round_each_step, func);

    const std::vector<std::size_t> rows =
        verifySampleRows(m, block_m, 0x5eed);
    Matrix<TAB> a_rows(entries * rows.size(), k);
    Matrix<TCD> c_rows(entries * rows.size(), n);
    for (std::size_t e = 0; e < entries; ++e) {
        for (std::size_t s = 0; s < rows.size(); ++s) {
            const std::size_t src = e * m + rows[s];
            const std::size_t dst = e * rows.size() + s;
            std::memcpy(&a_rows(dst, 0), &a(src, 0), k * sizeof(TAB));
            std::memcpy(&c_rows(dst, 0), &c(src, 0), n * sizeof(TCD));
        }
    }
    Matrix<TCD> ref(entries * rows.size(), n);
    scalarReferenceGemm<TCD, TAB, TAcc>(0.5, a_rows, b, 2.0, c_rows, ref,
                                        round_each_step);

    VerifyResult clean;
    compareSampledRows(d.data(), ref.data(), m, n, entries, rows, clean);
    expectBitExact(clean);

    for (std::size_t e = 0; e < entries; ++e) {
        for (const std::size_t row : rows) {
            const std::size_t col = (row * 7 + e) % n;
            Matrix<TCD> bad = d;
            bad(e * m + row, col) = flipLowBit(bad(e * m + row, col));
            VerifyResult result;
            compareSampledRows(bad.data(), ref.data(), m, n, entries, rows,
                               result);
            EXPECT_FALSE(result.passed) << "entry " << e << " row " << row;
            EXPECT_EQ(result.mismatches, 1u);
            EXPECT_EQ(result.maxUlp, 1u);
            EXPECT_EQ(result.errorRow, row);
            EXPECT_EQ(result.errorCol, col);
        }
    }

    std::size_t unsampled = 0;
    while (std::count(rows.begin(), rows.end(), unsampled))
        ++unsampled;
    Matrix<TCD> outside = d;
    outside(unsampled, 3) = flipLowBit(outside(unsampled, 3));
    VerifyResult result;
    compareSampledRows(outside.data(), ref.data(), m, n, entries, rows,
                       result);
    EXPECT_TRUE(result.passed) << "row " << unsampled << " is not sampled";
}

TEST(VerifyCompare, OneUlpInAnySampledRowFails)
{
    expectSampledFlipsFail<float, float, float>(false);
    expectSampledFlipsFail<fp::Half, fp::Half, float>(true);
}

TEST(VerifyDeathTest, RejectsHugeProblems)
{
    // 16384^3 = 2^42 multiply-adds: above the raised 2^37 host-work
    // cap (the fast backend made 4096-class problems practical).
    EXPECT_DEATH(
        (void)verifyGemm(squareConfig(GemmCombo::Sgemm, 16384)),
        "problem too");
}

} // namespace
} // namespace blas
} // namespace mc
