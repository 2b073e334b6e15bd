/**
 * @file
 * The strided-batched fast-GEMM drivers' contract: every entry of
 * fastBatchedGemm / fastBatchedTiledMatrixCoreGemm /
 * fastBatchedQuantizedGemm is bit-identical to the corresponding
 * scalar reference (scalarReferenceGemm / scalarTiledMatrixCoreGemm /
 * scalarQuantizedGemm), which shares no code with the drivers, on the
 * same operand slices — with strided
 * operands, with the stride-0 broadcast convention (shared A or B
 * staged once), across thread counts, and with the pack cache on or
 * off. Complements tests/blas/batched_test.cc, which covers the
 * simulated device's batched planning; this file covers the host
 * functional path.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "arch/mfma_isa.hh"
#include "blas/batched_gemm.hh"
#include "blas/functional.hh"
#include "blas/int8_gemm.hh"
#include "blas/pack_cache.hh"
#include "blas/simd_dispatch.hh"
#include "common/random.hh"

namespace mc {
namespace blas {
namespace {

template <typename T>
std::vector<T>
randomFlat(Rng &rng, std::size_t count)
{
    std::vector<T> v(count);
    for (T &x : v)
        x = T(static_cast<float>(rng.uniform(-1.0, 1.0)));
    return v;
}

std::vector<std::int8_t>
randomFlatI8(Rng &rng, std::size_t count)
{
    std::vector<std::int8_t> v(count);
    for (std::int8_t &x : v)
        x = static_cast<std::int8_t>(
            std::lround(rng.uniform(-128.0, 127.0)));
    return v;
}

template <typename T>
::testing::AssertionResult
flatBitIdentical(const std::vector<T> &x, const std::vector<T> &y)
{
    if (x.size() != y.size())
        return ::testing::AssertionFailure() << "size mismatch";
    if (std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) == 0)
        return ::testing::AssertionSuccess();
    for (std::size_t i = 0; i < x.size(); ++i)
        if (std::memcmp(&x[i], &y[i], sizeof(T)) != 0)
            return ::testing::AssertionFailure()
                   << "first differing element at flat index " << i;
    return ::testing::AssertionFailure() << "memcmp/element disagree";
}

/** Wrap a flat batch entry as a Matrix for the scalar references. */
template <typename T>
Matrix<T>
sliceMatrix(const T *base, std::size_t rows, std::size_t cols)
{
    Matrix<T> m(rows, cols);
    std::memcpy(m.data(), base, rows * cols * sizeof(T));
    return m;
}

struct BatchCase
{
    std::size_t batch, m, n, k;
    std::size_t strideA, strideB; ///< 0 broadcasts that operand
};

/** Strided and broadcast layouts, decode-shaped and odd entries. */
const BatchCase kCases[] = {
    {1, 5, 7, 9, 5 * 9, 9 * 7},    // trivial batch
    {3, 7, 15, 9, 7 * 9, 9 * 15},  // fully strided
    {4, 13, 31, 8, 13 * 8, 0},     // shared B (the weights case)
    {4, 1, 17, 23, 0, 23 * 17},    // shared A, decode row
    {2, 1, 1, 1, 1, 1},            // degenerate everything
    {5, 3, 1, 40, 3 * 40, 40},     // N = 1 column panels
};

const int kThreadCounts[] = {1, 3};

class BatchedDriverTest : public ::testing::TestWithParam<bool>
{
  protected:
    void SetUp() override
    {
        PackCache::setEnabled(GetParam());
        PackCache::setMinSourceBytes(0); // tiny test panels must cache
        if (GetParam())
            PackCache::instance().clear();
    }
    void TearDown() override
    {
        PackCache::setEnabled(true);
        PackCache::setMinSourceBytes(PackCache::kDefaultMinSourceBytes);
        PackCache::instance().clear();
    }
};

template <typename TCD, typename TAB, typename TAcc>
void
expectBatchedMatchesLoop(const BatchCase &bc, int threads,
                         std::uint64_t seed)
{
    Rng rng(seed);
    const std::size_t a_count =
        bc.strideA ? bc.strideA * bc.batch : bc.m * bc.k;
    const std::size_t b_count =
        bc.strideB ? bc.strideB * bc.batch : bc.k * bc.n;
    const auto a = randomFlat<TAB>(rng, a_count);
    const auto b = randomFlat<TAB>(rng, b_count);
    const auto c = randomFlat<TCD>(rng, bc.batch * bc.m * bc.n);
    FunctionalGemmOptions opts;
    opts.threads = threads;

    std::vector<TCD> d_batched(bc.batch * bc.m * bc.n, TCD(0.0f));
    fastBatchedGemm<TCD, TAB, TAcc>(
        bc.batch, 1.25, a.data(), bc.strideA, b.data(), bc.strideB, 0.5,
        c.data(), bc.m * bc.n, d_batched.data(), bc.m * bc.n, bc.m, bc.n,
        bc.k, /*round_each_step=*/false, opts);

    std::vector<TCD> d_loop(bc.batch * bc.m * bc.n, TCD(0.0f));
    for (std::size_t e = 0; e < bc.batch; ++e) {
        const auto ae =
            sliceMatrix(a.data() + e * bc.strideA, bc.m, bc.k);
        const auto be =
            sliceMatrix(b.data() + e * bc.strideB, bc.k, bc.n);
        const auto ce =
            sliceMatrix(c.data() + e * bc.m * bc.n, bc.m, bc.n);
        Matrix<TCD> de(bc.m, bc.n);
        scalarReferenceGemm<TCD, TAB, TAcc>(1.25, ae, be, 0.5, ce, de);
        std::memcpy(d_loop.data() + e * bc.m * bc.n, de.data(),
                    bc.m * bc.n * sizeof(TCD));
    }
    EXPECT_TRUE(flatBitIdentical(d_loop, d_batched))
        << "batch=" << bc.batch << " m=" << bc.m << " n=" << bc.n
        << " k=" << bc.k << " strideA=" << bc.strideA
        << " strideB=" << bc.strideB << " threads=" << threads;
}

TEST_P(BatchedDriverTest, FloatEntriesMatchSingleCalls)
{
    std::uint64_t seed = 0xb100;
    for (const BatchCase &bc : kCases)
        for (int threads : kThreadCounts)
            expectBatchedMatchesLoop<float, float, float>(bc, threads,
                                                          ++seed);
}

TEST_P(BatchedDriverTest, HalfEntriesMatchSingleCalls)
{
    std::uint64_t seed = 0xb200;
    for (const BatchCase &bc : kCases) {
        for (int threads : kThreadCounts) {
            expectBatchedMatchesLoop<float, fp::Half, float>(bc, threads,
                                                             ++seed);
            expectBatchedMatchesLoop<fp::Half, fp::Half, float>(
                bc, threads, ++seed);
        }
    }
}

TEST_P(BatchedDriverTest, TiledMatrixCoreEntriesMatchSingleCalls)
{
    const arch::MfmaInstruction *inst = arch::findInstruction(
        arch::GpuArch::Cdna2, "v_mfma_f32_16x16x16_f16");
    ASSERT_NE(inst, nullptr);

    std::uint64_t seed = 0xb300;
    for (const BatchCase &bc : kCases) {
        Rng rng(++seed);
        const std::size_t a_count =
            bc.strideA ? bc.strideA * bc.batch : bc.m * bc.k;
        const std::size_t b_count =
            bc.strideB ? bc.strideB * bc.batch : bc.k * bc.n;
        const auto a = randomFlat<fp::Half>(rng, a_count);
        const auto b = randomFlat<fp::Half>(rng, b_count);
        const auto c = randomFlat<float>(rng, bc.batch * bc.m * bc.n);

        std::vector<float> d_batched(bc.batch * bc.m * bc.n, 0.0f);
        fastBatchedTiledMatrixCoreGemm<float, fp::Half, float>(
            *inst, bc.batch, 1.25, a.data(), bc.strideA, b.data(),
            bc.strideB, 0.5, c.data(), bc.m * bc.n, d_batched.data(),
            bc.m * bc.n, bc.m, bc.n, bc.k);

        std::vector<float> d_loop(bc.batch * bc.m * bc.n, 0.0f);
        for (std::size_t e = 0; e < bc.batch; ++e) {
            const auto ae =
                sliceMatrix(a.data() + e * bc.strideA, bc.m, bc.k);
            const auto be =
                sliceMatrix(b.data() + e * bc.strideB, bc.k, bc.n);
            const auto ce =
                sliceMatrix(c.data() + e * bc.m * bc.n, bc.m, bc.n);
            Matrix<float> de(bc.m, bc.n);
            scalarTiledMatrixCoreGemm<float, fp::Half, float>(
                *inst, 1.25, ae, be, 0.5, ce, de);
            std::memcpy(d_loop.data() + e * bc.m * bc.n, de.data(),
                        bc.m * bc.n * sizeof(float));
        }
        EXPECT_TRUE(flatBitIdentical(d_loop, d_batched))
            << "batch=" << bc.batch << " m=" << bc.m << " n=" << bc.n
            << " k=" << bc.k;
    }
}

TEST_P(BatchedDriverTest, QuantizedEntriesMatchSingleCalls)
{
    QuantParams qp;
    qp.scaleA = 0.02f;
    qp.scaleB = 0.05f;
    qp.scaleD = 0.25f;
    qp.zeroA = 3;
    qp.zeroB = -5;
    qp.zeroD = 1;

    std::uint64_t seed = 0xb400;
    for (const BatchCase &bc : kCases) {
        for (int threads : kThreadCounts) {
            Rng rng(++seed);
            const std::size_t a_count =
                bc.strideA ? bc.strideA * bc.batch : bc.m * bc.k;
            const std::size_t b_count =
                bc.strideB ? bc.strideB * bc.batch : bc.k * bc.n;
            const auto a = randomFlatI8(rng, a_count);
            const auto b = randomFlatI8(rng, b_count);
            const auto c = randomFlatI8(rng, bc.batch * bc.m * bc.n);
            FunctionalGemmOptions opts;
            opts.threads = threads;

            std::vector<std::int8_t> d_batched(bc.batch * bc.m * bc.n,
                                               std::int8_t{0});
            fastBatchedQuantizedGemm(
                bc.batch, 1.25, a.data(), bc.strideA, b.data(),
                bc.strideB, 0.5, c.data(), bc.m * bc.n,
                d_batched.data(), bc.m * bc.n, bc.m, bc.n, bc.k, qp,
                opts);

            std::vector<std::int8_t> d_loop(bc.batch * bc.m * bc.n,
                                            std::int8_t{0});
            for (std::size_t e = 0; e < bc.batch; ++e) {
                const auto ae =
                    sliceMatrix(a.data() + e * bc.strideA, bc.m, bc.k);
                const auto be =
                    sliceMatrix(b.data() + e * bc.strideB, bc.k, bc.n);
                const auto ce = sliceMatrix(c.data() + e * bc.m * bc.n,
                                            bc.m, bc.n);
                Matrix<std::int8_t> de(bc.m, bc.n);
                scalarQuantizedGemm(1.25, ae, be, 0.5, ce, de, qp);
                std::memcpy(d_loop.data() + e * bc.m * bc.n, de.data(),
                            bc.m * bc.n);
            }
            EXPECT_TRUE(flatBitIdentical(d_loop, d_batched))
                << "batch=" << bc.batch << " m=" << bc.m
                << " n=" << bc.n << " k=" << bc.k
                << " threads=" << threads;
        }
    }
}

TEST_P(BatchedDriverTest, SharedOperandStagesOnceWhenCacheEnabled)
{
    if (!GetParam())
        GTEST_SKIP() << "cache-off run has no staging counters";

    // A stride-0 B across 6 entries: the widened-B panel must be
    // staged exactly once (one miss), not once per entry.
    Rng rng(0xb500);
    const std::size_t m = 4, n = 33, k = 17, batch = 6;
    const auto a = randomFlat<fp::Half>(rng, batch * m * k);
    const auto b = randomFlat<fp::Half>(rng, k * n);
    const auto c = randomFlat<float>(rng, batch * m * n);
    std::vector<float> d(batch * m * n, 0.0f);

    PackCache::instance().clear();
    const PackCacheStats before = PackCache::globalStats();
    fastBatchedGemm<float, fp::Half, float>(
        batch, 1.0, a.data(), m * k, b.data(), 0, 0.0, c.data(), m * n,
        d.data(), m * n, m, n, k);
    const PackCacheStats after = PackCache::globalStats();
    // batch A panels + 1 shared B panel, each staged exactly once.
    EXPECT_EQ(after.misses - before.misses, batch + 1);
}

INSTANTIATE_TEST_SUITE_P(PackCacheOnOff, BatchedDriverTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &info) {
                             return info.param ? "CacheOn" : "CacheOff";
                         });

} // namespace
} // namespace blas
} // namespace mc
