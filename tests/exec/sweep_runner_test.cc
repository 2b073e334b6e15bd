/**
 * @file
 * Tests of the sweep runner: stable seed derivation, ordered results,
 * exception selection, and the determinism contract — a noisy GEMM
 * sweep at jobs=8 must reproduce jobs=1 bit for bit.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "blas/gemm.hh"
#include "exec/sweep_runner.hh"
#include "fault/injector.hh"
#include "hip/runtime.hh"

namespace mc {
namespace exec {
namespace {

TEST(DeriveSeed, StableAcrossCalls)
{
    const std::uint64_t a = deriveSeed("fig6_gemm_fp", "sgemm/4096", 3);
    const std::uint64_t b = deriveSeed("fig6_gemm_fp", "sgemm/4096", 3);
    EXPECT_EQ(a, b);
}

TEST(DeriveSeed, EveryComponentChangesTheSeed)
{
    const std::uint64_t base = deriveSeed("bench", "point", 0);
    EXPECT_NE(deriveSeed("bench2", "point", 0), base);
    EXPECT_NE(deriveSeed("bench", "point2", 0), base);
    EXPECT_NE(deriveSeed("bench", "point", 1), base);
}

TEST(DeriveSeed, ComponentBoundariesDoNotCollide)
{
    // Without a separator ("ab", "c") and ("a", "bc") would hash the
    // same byte stream.
    EXPECT_NE(deriveSeed("ab", "c", 0), deriveSeed("a", "bc", 0));
}

TEST(DeriveSeed, AdjacentRepetitionsAreWellMixed)
{
    // The finalizer should spread consecutive reps over the full
    // 64-bit range, not leave them adjacent.
    std::set<std::uint64_t> seeds;
    for (std::uint64_t rep = 0; rep < 64; ++rep)
        seeds.insert(deriveSeed("bench", "point", rep));
    EXPECT_EQ(seeds.size(), 64u);
    const std::uint64_t s0 = deriveSeed("bench", "point", 0);
    const std::uint64_t s1 = deriveSeed("bench", "point", 1);
    EXPECT_GT(std::max(s0, s1) - std::min(s0, s1), 1u << 20);
}

TEST(SweepRunner, ClampsJobsAndKeepsBenchName)
{
    SweepRunner runner("my_bench", -3);
    EXPECT_EQ(runner.jobs(), 1);
    EXPECT_EQ(runner.benchName(), "my_bench");
    EXPECT_EQ(runner.seedFor("p", 2), deriveSeed("my_bench", "p", 2));
}

TEST(SweepRunner, MapReturnsResultsInIndexOrder)
{
    for (int jobs : {1, 8}) {
        SweepRunner runner("order", jobs);
        const std::vector<std::size_t> out =
            runner.map(100, [](std::size_t i) { return i * i; });
        ASSERT_EQ(out.size(), 100u);
        for (std::size_t i = 0; i < out.size(); ++i)
            EXPECT_EQ(out[i], i * i);
    }
}

TEST(SweepRunner, MapOnZeroPointsReturnsEmpty)
{
    SweepRunner runner("empty", 8);
    const auto out = runner.map(0, [](std::size_t i) { return i; });
    EXPECT_TRUE(out.empty());
}

TEST(SweepRunner, ExceptionReachesCaller)
{
    for (int jobs : {1, 8}) {
        SweepRunner runner("throws", jobs);
        EXPECT_THROW(runner.map(16,
                                [](std::size_t i) -> int {
                                    if (i == 5)
                                        throw std::runtime_error("boom");
                                    return 0;
                                }),
                     std::runtime_error);
    }
}

/**
 * Run a small noisy GEMM sweep the way the figure benches do: one
 * Runtime per point, noise reseeded per repetition from
 * (bench, point, rep). Returns every sampled latency.
 */
std::vector<double>
noisyGemmSweep(int jobs)
{
    const std::size_t sizes[] = {256, 512, 1024};
    constexpr int kReps = 3;

    SweepRunner runner("sweep_runner_test", jobs);
    const auto per_point =
        runner.map(std::size(sizes), [&](std::size_t i) {
            hip::Runtime rt; // noise enabled by default
            blas::GemmEngine engine(rt);
            blas::GemmConfig cfg;
            cfg.combo = blas::GemmCombo::Sgemm;
            cfg.m = cfg.n = cfg.k = sizes[i];
            const std::string key = "sgemm/" + std::to_string(sizes[i]);

            std::vector<double> samples;
            for (int rep = 0; rep < kReps; ++rep) {
                rt.gpu().reseedNoise(
                    runner.seedFor(key, static_cast<std::uint64_t>(rep)));
                auto result = engine.run(cfg);
                EXPECT_TRUE(result.isOk());
                samples.push_back(result.value().throughput());
            }
            return samples;
        });

    std::vector<double> flat;
    for (const auto &samples : per_point)
        flat.insert(flat.end(), samples.begin(), samples.end());
    return flat;
}

TEST(SweepRunner, ParallelGemmSweepIsBitIdenticalToSerial)
{
    const std::vector<double> serial = noisyGemmSweep(1);
    const std::vector<double> parallel = noisyGemmSweep(8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], parallel[i]) << "sample " << i;

    // The sweep is genuinely noisy: repetitions of one point differ.
    EXPECT_NE(serial[0], serial[1]);
}

TEST(SweepRunner, MapFastCancelSkipsUnstartedPoints)
{
    // Two workers, 64 points, the very first throws: the points still
    // queued behind it must be cancelled, not executed. Left alone, the
    // second worker drains all 63 trivial points in the microseconds
    // between point 0's throw and the cancel flag the runner sets on
    // catching it. So points 1..63 hold until point 0 has thrown and
    // then take 10 ms each: the first worker sets the flag and reaches
    // the queue long before the second worker could empty it.
    SweepRunner runner("cancel", 2);
    std::atomic<int> executed{0};
    std::latch thrown(1);
    EXPECT_THROW(runner.map(64,
                            [&](std::size_t i) -> int {
                                ++executed;
                                if (i == 0) {
                                    thrown.count_down();
                                    throw std::runtime_error("boom");
                                }
                                thrown.wait();
                                std::this_thread::sleep_for(
                                    std::chrono::milliseconds(10));
                                return 0;
                            }),
                 std::runtime_error);
    // At most the points already started before the flag flipped ran.
    EXPECT_LT(executed.load(), 64);
    EXPECT_GT(runner.lastStats().skipped, 0u);
    EXPECT_EQ(executed.load() + runner.lastStats().skipped, 64u);
}

TEST(SweepRunner, SerialMapReportsSkippedOnThrow)
{
    SweepRunner runner("cancel_serial", 1);
    EXPECT_THROW(runner.map(10,
                            [](std::size_t i) -> int {
                                if (i == 3)
                                    throw std::runtime_error("boom");
                                return 0;
                            }),
                 std::runtime_error);
    EXPECT_EQ(runner.lastStats().skipped, 6u);
}

TEST(SweepRunner, MapResultIsolatesFailedPoints)
{
    for (int jobs : {1, 8}) {
        SweepRunner runner("isolate", jobs);
        const auto results = runner.mapResult(
            20,
            [](std::size_t i) -> Result<std::size_t> {
                if (i % 5 == 0)
                    return Status::outOfMemory("point too large");
                return i;
            },
            /*max_failures=*/100);
        ASSERT_EQ(results.size(), 20u);
        for (std::size_t i = 0; i < 20; ++i) {
            if (i % 5 == 0) {
                EXPECT_FALSE(results[i].isOk());
                EXPECT_EQ(results[i].status().code(),
                          ErrorCode::OutOfMemory);
            } else {
                ASSERT_TRUE(results[i].isOk());
                EXPECT_EQ(results[i].value(), i);
            }
        }
        EXPECT_EQ(runner.lastStats().failed, 4u);
        EXPECT_EQ(runner.lastStats().skipped, 0u);
        EXPECT_FALSE(runner.lastStats().budgetExhausted);
    }
}

TEST(SweepRunner, MapResultBudgetCancelsTail)
{
    // Serial: deterministic — points 0..2 fail, the budget (2) is
    // blown after the third failure, everything later is skipped.
    SweepRunner runner("budget", 1);
    std::atomic<int> executed{0};
    const auto results = runner.mapResult(
        50,
        [&](std::size_t i) -> Result<int> {
            ++executed;
            if (i < 3)
                return Status::unavailable("transient");
            return 1;
        },
        /*max_failures=*/2);
    ASSERT_EQ(results.size(), 50u);
    EXPECT_EQ(executed.load(), 3);
    EXPECT_TRUE(runner.lastStats().budgetExhausted);
    EXPECT_EQ(runner.lastStats().failed, 3u);
    EXPECT_EQ(runner.lastStats().skipped, 47u);
    EXPECT_EQ(results[10].status().code(), ErrorCode::ResourceExhausted);
}

TEST(SweepRunner, MapResultBudgetCancelsUnderJobs)
{
    // Parallel: which points get skipped is timing-dependent, but the
    // budget must still stop a systematically failing sweep early.
    SweepRunner runner("budget_par", 4);
    std::atomic<int> executed{0};
    const auto results = runner.mapResult(
        200,
        [&](std::size_t) -> Result<int> {
            ++executed;
            return Status::outOfMemory("every point fails");
        },
        /*max_failures=*/5);
    ASSERT_EQ(results.size(), 200u);
    EXPECT_TRUE(runner.lastStats().budgetExhausted);
    EXPECT_GT(runner.lastStats().skipped, 0u);
    EXPECT_EQ(runner.lastStats().failed + runner.lastStats().skipped,
              200u);
    EXPECT_EQ(static_cast<std::size_t>(executed.load()),
              runner.lastStats().failed);
}

TEST(SweepRunner, MapResultFailureSetIsJobsInvariant)
{
    // The *which points failed* record must match between jobs=1 and
    // jobs=8 when the budget is not exhausted: failures are decided by
    // the point's own deterministic fault stream, not by scheduling.
    auto failure_mask = [](int jobs) {
        SweepRunner runner("mask", jobs);
        const auto results = runner.mapResult(
            64,
            [&](std::size_t i) -> Result<int> {
                fault::Injector inj(
                    fault::parseFaultSpec("oom=0.3").value(),
                    fault::faultSeed(runner.seedFor(
                        "p" + std::to_string(i), 0)));
                if (inj.fire(fault::FaultSite::HbmAlloc))
                    return Status::unavailable("injected");
                return 0;
            },
            /*max_failures=*/64);
        std::vector<bool> mask;
        for (const auto &r : results)
            mask.push_back(r.isOk());
        return mask;
    };
    EXPECT_EQ(failure_mask(1), failure_mask(8));
}

} // namespace
} // namespace exec
} // namespace mc
