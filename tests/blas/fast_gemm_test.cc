/**
 * @file
 * Bit-exactness suite of the fast functional-GEMM backend
 * (docs/PERF.md): the blocked/packed/threaded kernels must reproduce
 * the retained scalar reference paths byte for byte — for every
 * datatype combination, at odd shapes that are not multiples of any
 * block size, with per-step f16 rounding on and off, and at every
 * thread count.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "blas/functional.hh"
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

/** Odd shapes: none is a multiple of the block sizes used below, and
 *  the degenerate single-row/column cases are included. */
const Shape kShapes[] = {
    {1, 1, 1},   {1, 7, 3},    {5, 1, 9},    {17, 1, 17},
    {16, 16, 16}, {33, 17, 65}, {40, 24, 56}, {129, 67, 31},
};

/** Small blocks so kShapes exercises partial blocks in every loop. */
FunctionalGemmOptions
smallBlocks(int threads)
{
    FunctionalGemmOptions opts;
    opts.threads = threads;
    opts.blockM = 16;
    opts.blockN = 24;
    opts.blockK = 40;
    return opts;
}

template <typename TCD, typename TAB, typename TAcc>
void
expectGemmBitExact(const Shape &s, bool round_each_step)
{
    Rng rng(0x9000 + s.m * 131 + s.n * 17 + s.k);
    const auto a = randomMatrix<TAB>(rng, s.m, s.k);
    const auto b = randomMatrix<TAB>(rng, s.k, s.n);
    const auto c = randomMatrix<TCD>(rng, s.m, s.n);

    Matrix<TCD> d_scalar(s.m, s.n);
    scalarReferenceGemm<TCD, TAB, TAcc>(1.25, a, b, -0.5, c, d_scalar,
                                        round_each_step);

    for (int threads : {1, 2, 8}) {
        Matrix<TCD> d_fast(s.m, s.n);
        referenceGemm<TCD, TAB, TAcc>(1.25, a, b, -0.5, c, d_fast,
                                      round_each_step,
                                      smallBlocks(threads));
        EXPECT_TRUE(bitIdentical(d_scalar, d_fast))
            << "shape " << s.m << "x" << s.n << "x" << s.k
            << " threads=" << threads
            << " round_each_step=" << round_each_step;
    }
}

TEST(FastGemmBitExact, Dgemm)
{
    for (const Shape &s : kShapes)
        expectGemmBitExact<double, double, double>(s, false);
}

TEST(FastGemmBitExact, Sgemm)
{
    for (const Shape &s : kShapes)
        expectGemmBitExact<float, float, float>(s, false);
}

TEST(FastGemmBitExact, HgemmRoundsEachStep)
{
    for (const Shape &s : kShapes)
        expectGemmBitExact<fp::Half, fp::Half, float>(s, true);
}

TEST(FastGemmBitExact, Hhs)
{
    for (const Shape &s : kShapes)
        expectGemmBitExact<fp::Half, fp::Half, float>(s, false);
}

TEST(FastGemmBitExact, Hss)
{
    for (const Shape &s : kShapes)
        expectGemmBitExact<float, fp::Half, float>(s, false);
}

/** The tiled Matrix Core path: fast blocked core vs scalar tiling,
 *  including the k-padding to a multiple of the instruction shape. */
TEST(FastGemmBitExact, TiledMatrixCorePath)
{
    const arch::MfmaInstruction *inst = arch::findInstruction(
        arch::GpuArch::Cdna2, "v_mfma_f32_16x16x16_f16");
    ASSERT_NE(inst, nullptr);

    for (const Shape &s : kShapes) {
        Rng rng(0x7100 + s.m + s.n + s.k);
        const auto a = randomMatrix<fp::Half>(rng, s.m, s.k);
        const auto b = randomMatrix<fp::Half>(rng, s.k, s.n);
        const auto c = randomMatrix<float>(rng, s.m, s.n);

        Matrix<float> d_scalar(s.m, s.n);
        scalarTiledMatrixCoreGemm<float, fp::Half, float>(
            *inst, 0.1, a, b, 0.1, c, d_scalar);
        for (int threads : {1, 8}) {
            Matrix<float> d_fast(s.m, s.n);
            tiledMatrixCoreGemm<float, fp::Half, float>(
                *inst, 0.1, a, b, 0.1, c, d_fast, smallBlocks(threads));
            EXPECT_TRUE(bitIdentical(d_scalar, d_fast))
                << "shape " << s.m << "x" << s.n << "x" << s.k
                << " threads=" << threads;
        }
    }
}

/** Double-precision MFMA tiling (exercises TAcc == TAB == double). */
TEST(FastGemmBitExact, TiledMatrixCorePathDouble)
{
    const arch::MfmaInstruction *inst = arch::findInstruction(
        arch::GpuArch::Cdna2, "v_mfma_f64_16x16x4_f64");
    ASSERT_NE(inst, nullptr);

    const Shape s{33, 29, 18}; // k not a multiple of 4: pads
    Rng rng(0x7d);
    const auto a = randomMatrix<double>(rng, s.m, s.k);
    const auto b = randomMatrix<double>(rng, s.k, s.n);
    const auto c = randomMatrix<double>(rng, s.m, s.n);

    Matrix<double> d_scalar(s.m, s.n), d_fast(s.m, s.n);
    scalarTiledMatrixCoreGemm<double, double, double>(*inst, 0.1, a, b,
                                                      0.1, c, d_scalar);
    tiledMatrixCoreGemm<double, double, double>(*inst, 0.1, a, b, 0.1, c,
                                                d_fast, smallBlocks(2));
    EXPECT_TRUE(bitIdentical(d_scalar, d_fast));
}

/** Thread-count invariance at a size where the row-block partition
 *  actually differs between 1, 3, and 8 workers. */
TEST(FastGemmBitExact, ThreadCountInvariant)
{
    const std::size_t n = 150;
    Rng rng(0x1217);
    const auto a = randomMatrix<fp::Half>(rng, n, n);
    const auto b = randomMatrix<fp::Half>(rng, n, n);
    const auto c = randomMatrix<fp::Half>(rng, n, n);

    Matrix<fp::Half> d1(n, n);
    referenceGemm<fp::Half, fp::Half, float>(0.1, a, b, 0.1, c, d1, true,
                                             smallBlocks(1));
    for (int threads : {2, 3, 8}) {
        Matrix<fp::Half> dt(n, n);
        referenceGemm<fp::Half, fp::Half, float>(
            0.1, a, b, 0.1, c, dt, true, smallBlocks(threads));
        EXPECT_TRUE(bitIdentical(d1, dt)) << "threads=" << threads;
    }
}

} // namespace
} // namespace blas
} // namespace mc
