/**
 * @file
 * The process-wide GEMM state across fork(): exec::sharedPool and the
 * shared PackCache. A child forked through exec::ChildProcess while
 * the parent's pool and cache are live and busy inherits the pool
 * without its worker threads, and the locks of both at whatever state
 * the parent's threads left them. It must still finish a threads = 2
 * GEMM, bit-exact, and hit the cache it filled.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "blas/functional.hh"
#include "blas/pack_cache.hh"
#include "common/random.hh"
#include "exec/child_process.hh"

namespace mc {
namespace blas {
namespace {

Matrix<float>
randomMatrix(Rng &rng, std::size_t rows, std::size_t cols)
{
    Matrix<float> m(rows, cols);
    for (std::size_t i = 0; i < rows; ++i)
        for (std::size_t j = 0; j < cols; ++j)
            m(i, j) = static_cast<float>(rng.uniform(-1.0, 1.0));
    return m;
}

bool
sameBits(const Matrix<float> &x, const Matrix<float> &y)
{
    return std::memcmp(x.data(), y.data(),
                       x.rows() * x.cols() * sizeof(float)) == 0;
}

TEST(ForkSafety, ChildFinishesGemmAndCacheHitWhileParentIsBusy)
{
    PackCache::setEnabled(true);
    // 64 x 64 f32 B is 16 KiB: at the cache's size threshold.
    const std::size_t n = 64;
    Rng rng(0xf0c4);
    const auto a = randomMatrix(rng, n, n);
    const auto b = randomMatrix(rng, n, n);
    const auto c = randomMatrix(rng, n, n);
    Matrix<float> d_ref(n, n);
    scalarReferenceGemm<float, float, float>(1.25, a, b, -0.5, c, d_ref);
    FunctionalGemmOptions opts;
    opts.threads = 2;

    // Two parent threads keep the pool, its queue and the cache's
    // lock busy with other operands for the whole test.
    const auto busy_b = randomMatrix(rng, n, n);
    std::atomic<bool> stop{false};
    std::vector<std::thread> busy;
    for (int t = 0; t < 2; ++t) {
        busy.emplace_back([&] {
            Matrix<float> d(n, n);
            while (!stop.load()) {
                referenceGemm<float, float, float>(1.0, a, busy_b, 0.5, c,
                                                   d, false, opts);
                (void)PackCache::instance().hits();
            }
        });
    }

    for (int round = 0; round < 16; ++round) {
        exec::ChildProcess child([&] {
            const std::uint64_t hits = PackCache::instance().hits();
            Matrix<float> d1(n, n), d2(n, n);
            referenceGemm<float, float, float>(1.25, a, b, -0.5, c, d1,
                                               false, opts);
            referenceGemm<float, float, float>(1.25, a, b, -0.5, c, d2,
                                               false, opts);
            const bool ok = sameBits(d1, d_ref) && sameBits(d2, d_ref) &&
                            PackCache::instance().hits() > hits;
            ::_exit(ok ? 0 : 1);
        });
        ASSERT_TRUE(child.started());
        const exec::ChildExit exit = child.wait(30.0, 1.0);
        EXPECT_FALSE(exit.watchdogFired) << "round " << round;
        EXPECT_TRUE(WIFEXITED(exit.waitStatus) &&
                    WEXITSTATUS(exit.waitStatus) == 0)
            << "round " << round << " status " << exit.waitStatus;
        if (HasFailure())
            break;
    }
    stop.store(true);
    for (std::thread &t : busy)
        t.join();
}

} // namespace
} // namespace blas
} // namespace mc
