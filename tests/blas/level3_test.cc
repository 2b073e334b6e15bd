/**
 * @file
 * Tests of the TRSM, SYRK and GEMV routines: timing-model invariants
 * of the simulated device path.
 */

#include <gtest/gtest.h>

#include "blas/level3.hh"

namespace mc {
namespace blas {
namespace {

sim::SimOptions
quietOptions()
{
    sim::SimOptions opts;
    opts.enableNoise = false;
    return opts;
}

class Level3Timing : public ::testing::Test
{
  protected:
    Level3Timing()
        : rt(arch::defaultCdna2(), quietOptions()), engine(rt),
          level3(engine)
    {}

    hip::Runtime rt;
    GemmEngine engine;
    Level3Engine level3;
};

TEST_F(Level3Timing, TrsmReportsAlgorithmicFlops)
{
    TrsmConfig cfg;
    cfg.combo = GemmCombo::Dgemm;
    cfg.m = 2048;
    cfg.n = 512;
    auto result = level3.runTrsm(cfg);
    ASSERT_TRUE(result.isOk());
    const auto &r = result.value();
    EXPECT_TRUE(r.usedMatrixCores);
    // m^2 n FLOPs over the kernel duration.
    EXPECT_NEAR(r.kernel.mfmaFlops, 2048.0 * 2048.0 * 512.0, 1.0);
    EXPECT_GT(r.throughput(), 0.0);
}

TEST_F(Level3Timing, TrsmRunsAtRoughlyHalfGemmTime)
{
    TrsmConfig trsm;
    trsm.combo = GemmCombo::Sgemm;
    trsm.m = 4096;
    trsm.n = 4096;
    auto trsm_result = level3.runTrsm(trsm);
    ASSERT_TRUE(trsm_result.isOk());

    GemmConfig gemm;
    gemm.combo = GemmCombo::Sgemm;
    gemm.m = gemm.n = gemm.k = 4096;
    auto gemm_result = engine.run(gemm);
    ASSERT_TRUE(gemm_result.isOk());

    const double ratio = trsm_result.value().kernel.seconds /
                         gemm_result.value().kernel.seconds;
    // Half the work at slightly lower pipeline efficiency.
    EXPECT_GT(ratio, 0.4);
    EXPECT_LT(ratio, 0.75);
}

TEST_F(Level3Timing, SyrkReportsHalfGemmFlops)
{
    SyrkConfig cfg;
    cfg.combo = GemmCombo::Dgemm;
    cfg.n = 2048;
    cfg.k = 1024;
    cfg.alpha = -1.0;
    cfg.beta = 1.0;
    auto result = level3.runSyrk(cfg);
    ASSERT_TRUE(result.isOk());
    EXPECT_NEAR(result.value().kernel.mfmaFlops,
                2048.0 * 2048.0 * 1024.0, 1.0);
}

TEST_F(Level3Timing, HgemmComboStaysOnSimds)
{
    TrsmConfig cfg;
    cfg.combo = GemmCombo::Hgemm;
    cfg.m = 1024;
    cfg.n = 256;
    auto result = level3.runTrsm(cfg);
    ASSERT_TRUE(result.isOk());
    EXPECT_FALSE(result.value().usedMatrixCores);
}

TEST_F(Level3Timing, InvalidDimensionsRejected)
{
    TrsmConfig trsm;
    trsm.m = 0;
    trsm.n = 4;
    EXPECT_EQ(level3.runTrsm(trsm).status().code(),
              ErrorCode::InvalidArgument);
    SyrkConfig syrk;
    syrk.n = 4;
    syrk.k = 0;
    EXPECT_EQ(level3.runSyrk(syrk).status().code(),
              ErrorCode::InvalidArgument);
}

TEST_F(Level3Timing, GemvIsMemoryBound)
{
    GemvConfig cfg;
    cfg.combo = GemmCombo::Dgemm;
    cfg.m = 16384;
    cfg.n = 16384;
    auto result = level3.runGemv(cfg);
    ASSERT_TRUE(result.isOk());
    const auto &r = result.value();
    EXPECT_FALSE(r.usedMatrixCores);
    // 2mn FLOPs over bytes ~ 8mn: intensity 0.25 FLOP/byte, so the
    // achieved rate is bandwidth x intensity, far below compute peaks.
    const double expected =
        2.0 * 16384.0 * 16384.0 /
        (16384.0 * 16384.0 * 8.0 / (1.6e12 * 0.85));
    EXPECT_NEAR(r.throughput(), expected, expected * 0.1);
    EXPECT_LT(r.throughput() / 1e12, 1.0); // well under a TFLOPS
}

TEST_F(Level3Timing, GemvFlopsAreSimdOnly)
{
    GemvConfig cfg;
    cfg.combo = GemmCombo::Sgemm;
    cfg.m = 4096;
    cfg.n = 4096;
    auto result = level3.runGemv(cfg);
    ASSERT_TRUE(result.isOk());
    EXPECT_DOUBLE_EQ(result.value().kernel.mfmaFlops, 0.0);
    EXPECT_NEAR(result.value().kernel.simdFlops, cfg.flops(),
                cfg.flops() * 0.01);
}

TEST_F(Level3Timing, GemvInvalidDimensionsRejected)
{
    GemvConfig cfg;
    cfg.m = 0;
    cfg.n = 5;
    EXPECT_EQ(level3.runGemv(cfg).status().code(),
              ErrorCode::InvalidArgument);
}

TEST_F(Level3Timing, NoDeviceMemoryLeaked)
{
    TrsmConfig cfg;
    cfg.combo = GemmCombo::Sgemm;
    cfg.m = 1024;
    cfg.n = 1024;
    (void)level3.runTrsm(cfg);
    SyrkConfig syrk;
    syrk.combo = GemmCombo::Sgemm;
    syrk.n = 1024;
    syrk.k = 512;
    (void)level3.runSyrk(syrk);
    EXPECT_EQ(rt.allocatedBytes(0), 0u);
}

} // namespace
} // namespace blas
} // namespace mc
