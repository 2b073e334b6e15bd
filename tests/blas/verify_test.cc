/**
 * @file
 * Tests of the functional GEMM verification harness (the paper's
 * ones/identity scheme plus randomized checks) across every combo and
 * both execution paths.
 */

#include <gtest/gtest.h>

#include "blas/verify.hh"

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
    const VerifyResult result = verifyGemm(
        squareConfig(GetParam(), 96), VerifyScheme::Random, 1234);
    EXPECT_TRUE(result.passed) << result.detail;
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
    const VerifyResult result =
        verifyGemm(cfg, VerifyScheme::Random, 99);
    EXPECT_TRUE(result.passed) << result.detail;
}

TEST_P(VerifyAllCombos, BatchedConfigsCheckCappedEntriesInBothSchemes)
{
    for (const VerifyScheme scheme :
         {VerifyScheme::PaperOnesIdentity, VerifyScheme::Random}) {
        GemmConfig cfg = squareConfig(GetParam(), 40, 0.5, 2.0);
        cfg.batchCount = 6;
        const VerifyResult batched = verifyGemm(cfg, scheme, 77);
        EXPECT_TRUE(batched.passed) << batched.detail;
        EXPECT_EQ(batched.batchEntries, kMaxVerifyBatchEntries);
        EXPECT_NE(batched.detail.find("batch 4 (of 6)"), std::string::npos)
            << batched.detail;
        EXPECT_NE(batched.detail.find("strided-batched"), std::string::npos)
            << batched.detail;

        cfg.batchCount = 1;
        const VerifyResult single = verifyGemm(cfg, scheme, 77);
        EXPECT_TRUE(single.passed) << single.detail;
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
    EXPECT_GT(result.tolerance, 0.0);
}

TEST(Verify, ReportsUlpAndErrorIndex)
{
    const VerifyResult result = verifyGemm(
        squareConfig(GemmCombo::Hhs, 64), VerifyScheme::Random, 21);
    EXPECT_TRUE(result.passed) << result.detail;
    // The rounded f16 result differs from the widened reference by a
    // bounded, nonzero amount; the ULP report must be finite and the
    // detail string must carry the argmax index.
    EXPECT_NE(result.maxUlp, fp::kUlpNan);
    EXPECT_NE(result.detail.find("max ULP"), std::string::npos);
    EXPECT_NE(result.detail.find("at ("), std::string::npos);
    EXPECT_LT(result.errorRow, 64u);
    EXPECT_LT(result.errorCol, 64u);
}

TEST(Verify, ExactPathsReportZeroUlp)
{
    // SIMD-path combos re-run the identical reference computation, so
    // the self-comparison half of the check is bitwise equal, and the
    // paper scheme's closed form is exactly representable.
    const VerifyResult result =
        verifyGemm(squareConfig(GemmCombo::Dgemm, 32));
    EXPECT_TRUE(result.passed) << result.detail;
    EXPECT_EQ(result.maxUlp, 0u);
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
