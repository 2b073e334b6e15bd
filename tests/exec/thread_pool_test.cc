/**
 * @file
 * Tests of the fixed-size thread pool: FIFO dispatch, result and
 * exception propagation through futures, shutdown draining, and the
 * process-wide concurrency cap that keeps composed parallelism knobs
 * (sweep --jobs x --verify-threads) from oversubscribing the host.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/thread_pool.hh"

namespace mc {
namespace exec {
namespace {

TEST(ThreadPool, RunsSubmittedTaskAndReturnsResult)
{
    ThreadPool pool(2);
    auto future = pool.submit([] { return 6 * 7; });
    EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, ClampsThreadCountToAtLeastOne)
{
    ThreadPool pool(0);
    EXPECT_GE(pool.threadCount(), 1);
    auto future = pool.submit([] { return 1; });
    EXPECT_EQ(future.get(), 1);
}

TEST(ThreadPool, SingleWorkerExecutesInSubmissionOrder)
{
    // With one worker the FIFO queue forces strict submission order.
    ThreadPool pool(1);
    std::vector<int> order;
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 32; ++i)
        futures.push_back(pool.submit([&order, i] { order.push_back(i); }));
    for (auto &future : futures)
        future.get();

    std::vector<int> expected(32);
    std::iota(expected.begin(), expected.end(), 0);
    EXPECT_EQ(order, expected);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture)
{
    ThreadPool pool(2);
    auto bad = pool.submit(
        []() -> int { throw std::runtime_error("task failed"); });
    auto good = pool.submit([] { return 7; });

    EXPECT_THROW(
        {
            try {
                bad.get();
            } catch (const std::runtime_error &e) {
                EXPECT_STREQ(e.what(), "task failed");
                throw;
            }
        },
        std::runtime_error);
    // A throwing task must not take the pool down with it.
    EXPECT_EQ(good.get(), 7);
}

TEST(ThreadPool, ManyTasksAcrossWorkersAllComplete)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4);

    std::atomic<int> sum{0};
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 200; ++i)
        futures.push_back(pool.submit([&sum, i] {
            sum.fetch_add(1, std::memory_order_relaxed);
            return i * i;
        }));
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
    EXPECT_EQ(sum.load(), 200);
    EXPECT_EQ(pool.submittedCount(), 200u);
}

TEST(ThreadPool, DestructorDrainsPendingTasks)
{
    std::atomic<int> completed{0};
    {
        ThreadPool pool(1);
        for (int i = 0; i < 16; ++i)
            pool.submit([&completed] {
                completed.fetch_add(1, std::memory_order_relaxed);
            });
        // No get(): the destructor must still run every queued task.
    }
    EXPECT_EQ(completed.load(), 16);
}

TEST(ThreadPool, HardwareThreadsIsPositive)
{
    EXPECT_GE(ThreadPool::hardwareThreads(), 1);
}

TEST(SharedPool, ReturnsSamePoolForSatisfiableRequests)
{
    const std::shared_ptr<ThreadPool> two = sharedPool(2);
    ASSERT_NE(two, nullptr);
    EXPECT_GE(two->threadCount(), 2);
    // A smaller request reuses the existing pool.
    EXPECT_EQ(sharedPool(1).get(), two.get());
    EXPECT_EQ(sharedPool(2).get(), two.get());
}

TEST(SharedPool, GrowsByReplacementAndOldPoolStaysUsable)
{
    const std::shared_ptr<ThreadPool> small = sharedPool(2);
    const int bigger = small->threadCount() + 2;
    const std::shared_ptr<ThreadPool> grown = sharedPool(bigger);
    EXPECT_GE(grown->threadCount(), bigger);
    EXPECT_NE(grown.get(), small.get());
    // The replaced pool still runs tasks for holders of the old handle.
    EXPECT_EQ(small->submit([] { return 5; }).get(), 5);
    EXPECT_EQ(grown->submit([] { return 6; }).get(), 6);
}

TEST(ParallelChunks, CoversEveryIndexExactlyOnce)
{
    for (int threads : {1, 3, 8}) {
        std::vector<std::atomic<int>> touched(103);
        parallelChunks(103, 10, threads,
                       [&](std::size_t begin, std::size_t end) {
                           ASSERT_LE(begin, end);
                           ASSERT_LE(end, touched.size());
                           for (std::size_t i = begin; i < end; ++i)
                               touched[i].fetch_add(1);
                       });
        for (std::size_t i = 0; i < touched.size(); ++i)
            EXPECT_EQ(touched[i].load(), 1)
                << "index " << i << " threads " << threads;
    }
}

TEST(ParallelChunks, HandlesEmptyAndSingleChunkRanges)
{
    std::atomic<int> calls{0};
    parallelChunks(0, 16, 4, [&](std::size_t, std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0);

    parallelChunks(7, 16, 4, [&](std::size_t begin, std::size_t end) {
        EXPECT_EQ(begin, 0u);
        EXPECT_EQ(end, 7u);
        ++calls;
    });
    EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelChunks, RethrowsFirstChunkExceptionAfterBarrier)
{
    std::atomic<int> completed{0};
    try {
        parallelChunks(40, 10, 4,
                       [&](std::size_t begin, std::size_t) {
                           if (begin == 10)
                               throw std::runtime_error("chunk died");
                           completed.fetch_add(1);
                       });
        FAIL() << "expected the chunk exception to propagate";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "chunk died");
    }
    // Every non-throwing chunk still ran (the barrier completes first).
    EXPECT_EQ(completed.load(), 3);
}

TEST(ParallelChunks, RunsOnTheThreadCountItIsGiven)
{
    // A pool grown by an earlier, wider request must not widen a later
    // call: threads = 2 means the caller plus one pool task.
    ASSERT_GE(sharedPool(4)->threadCount(), 4);
    std::mutex mutex;
    std::set<std::thread::id> ids;
    parallelChunks(64, 1, 2, [&](std::size_t, std::size_t) {
        // Long enough that idle pool workers would get a chunk.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        std::lock_guard<std::mutex> lock(mutex);
        ids.insert(std::this_thread::get_id());
    });
    EXPECT_LE(ids.size(), 2u);
}

TEST(ParallelChunks, CallFromAPoolWorkerCompletes)
{
    // The caller drains the chunk counter itself, so a nested call
    // finishes even while every other worker is busy with this task.
    const std::shared_ptr<ThreadPool> pool = sharedPool(2);
    std::atomic<int> covered{0};
    pool->submit([&]() {
            parallelChunks(32, 4, 8, [&](std::size_t begin,
                                         std::size_t end) {
                covered.fetch_add(static_cast<int>(end - begin));
            });
        })
        .get();
    EXPECT_EQ(covered.load(), 32);
}

/** Restores the uncapped default even when a test assertion throws. */
struct CapGuard
{
    ~CapGuard() { setConcurrencyCap(0); }
};

TEST(ConcurrencyCap, DefaultIsUncapped)
{
    EXPECT_EQ(concurrencyCap(), 0);
}

TEST(ConcurrencyCap, NegativeValuesMeanUncapped)
{
    CapGuard guard;
    setConcurrencyCap(-5);
    EXPECT_EQ(concurrencyCap(), 0);
}

TEST(ConcurrencyCap, CapOfOneMakesParallelChunksSerial)
{
    CapGuard guard;
    setConcurrencyCap(1);
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<int> off_thread_chunks{0};
    parallelChunks(50, 5, 8, [&](std::size_t, std::size_t) {
        if (std::this_thread::get_id() != caller)
            off_thread_chunks.fetch_add(1);
    });
    EXPECT_EQ(off_thread_chunks.load(), 0);
}

TEST(ConcurrencyCap, LimitsSharedPoolGrowth)
{
    CapGuard guard;
    // The process-wide pool may already exist (direct binary runs
    // execute the SharedPool tests first), so assert the cap stops
    // *growth* past max(cap, what was already there).
    const int pre = sharedPool(1)->threadCount();
    setConcurrencyCap(3);
    const int post = sharedPool(pre + 8)->threadCount();
    EXPECT_LE(post, std::max(3, pre));
}

TEST(ConcurrencyCap, ZeroRestoresUncappedGrowth)
{
    CapGuard guard;
    const int pre = sharedPool(1)->threadCount();
    setConcurrencyCap(2);
    EXPECT_LE(sharedPool(pre + 4)->threadCount(), std::max(2, pre));
    setConcurrencyCap(0);
    EXPECT_GE(sharedPool(pre + 4)->threadCount(), pre + 4);
}

TEST(ConcurrencyCap, CappedParallelChunksStillCoversEveryIndex)
{
    CapGuard guard;
    setConcurrencyCap(2);
    std::vector<std::atomic<int>> touched(103);
    parallelChunks(103, 10, 8,
                   [&](std::size_t begin, std::size_t end) {
                       for (std::size_t i = begin; i < end; ++i)
                           touched[i].fetch_add(1);
                   });
    for (std::size_t i = 0; i < touched.size(); ++i)
        EXPECT_EQ(touched[i].load(), 1) << "index " << i;
}

} // namespace
} // namespace exec
} // namespace mc
