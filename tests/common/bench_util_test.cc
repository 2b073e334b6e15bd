/**
 * @file
 * Tests of the shared bench helpers (repetition + the paper's error
 * bound reporting convention).
 */

#include <gtest/gtest.h>

#include "bench/common/bench_util.hh"

namespace mc {
namespace bench {
namespace {

TEST(SpeedupRange, PrintsMinAndMaxWithOneDecimal)
{
    EXPECT_EQ(speedupRange({3.04, 7.46, 2.31}), "2.3x - 7.5x");
    EXPECT_EQ(speedupRange({4.0}), "4.0x - 4.0x");
}

TEST(SpeedupRange, SaysSoWhenNoPointWasMeasured)
{
    EXPECT_EQ(speedupRange({}), "no point measured");
}

TEST(RepeatMeasure, RunsRequestedRepetitions)
{
    int calls = 0;
    const Measurement m = repeatMeasure([&]() {
        ++calls;
        return 2.0;
    }, 7);
    EXPECT_EQ(calls, 7);
    EXPECT_EQ(m.stats.count, 7u);
    EXPECT_DOUBLE_EQ(m.value(), 2.0);
}

TEST(RepeatMeasure, SummarizesVaryingSamples)
{
    int i = 0;
    const double values[] = {10.0, 20.0, 30.0};
    const Measurement m =
        repeatMeasure([&]() { return values[i++]; }, 3);
    EXPECT_DOUBLE_EQ(m.value(), 20.0);
    EXPECT_DOUBLE_EQ(m.stats.min, 10.0);
    EXPECT_DOUBLE_EQ(m.stats.max, 30.0);
}

TEST(Measurement, NoErrorBoundWhenSpreadTight)
{
    // Spread <= 2%: only the mean is printed (Section IV convention).
    int i = 0;
    const double values[] = {100.0, 100.5, 99.5, 100.0};
    const Measurement m =
        repeatMeasure([&]() { return values[i++]; }, 4);
    EXPECT_EQ(m.format(1.0, 1), "100.0");
}

TEST(Measurement, ErrorBoundWhenSpreadExceedsTwoPercent)
{
    int i = 0;
    const double values[] = {90.0, 110.0};
    const Measurement m =
        repeatMeasure([&]() { return values[i++]; }, 2);
    const std::string text = m.format(1.0, 1);
    EXPECT_NE(text.find("100.0"), std::string::npos);
    EXPECT_NE(text.find("+/-"), std::string::npos);
}

TEST(Measurement, ScalingApplied)
{
    const Measurement m = repeatMeasure([]() { return 43.6e12; }, 3);
    EXPECT_EQ(tflopsCell(m), "43.6");
}

TEST(RepeatMeasureDeathTest, ZeroRepetitionsPanics)
{
    EXPECT_DEATH(repeatMeasure([]() { return 1.0; }, 0),
                 "at least one repetition");
}

TEST(RepeatMeasureResilient, CleanRunMatchesRepeatMeasure)
{
    int calls = 0;
    const auto result = repeatMeasureResilient(
        [&](int) -> Result<TimedSample> {
            ++calls;
            return TimedSample{2.0, 1e-3};
        });
    ASSERT_TRUE(result.isOk());
    EXPECT_EQ(calls, 10);
    EXPECT_EQ(result.value().samplesTaken, 10);
    EXPECT_EQ(result.value().retries, 0);
    EXPECT_FALSE(result.value().aborted);
    EXPECT_DOUBLE_EQ(result.value().value(), 2.0);
}

TEST(RepeatMeasureResilient, TransientErrorIsRetriedWithStableRepIndex)
{
    // Repetition 2 fails twice before succeeding: the final values
    // must be exactly what a clean run would have measured, because
    // the rep index (not the attempt count) selects the sample.
    int failures_left = 2;
    std::vector<int> seen_reps;
    ResilientOptions opts;
    opts.repetitions = 4;
    const auto result = repeatMeasureResilient(
        [&](int rep) -> Result<TimedSample> {
            seen_reps.push_back(rep);
            if (rep == 2 && failures_left > 0) {
                --failures_left;
                return Status::unavailable("injected hiccup");
            }
            return TimedSample{static_cast<double>(rep), 1e-3};
        },
        opts);
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    EXPECT_EQ(result.value().retries, 2);
    EXPECT_EQ(result.value().samplesTaken, 4);
    EXPECT_DOUBLE_EQ(result.value().stats.mean, (0 + 1 + 2 + 3) / 4.0);
    const std::vector<int> expected = {0, 1, 2, 2, 2, 3};
    EXPECT_EQ(seen_reps, expected);
}

TEST(RepeatMeasureResilient, RetryBudgetExhaustionReturnsLastError)
{
    ResilientOptions opts;
    opts.repetitions = 4;
    opts.retry.maxAttempts = 3;
    int calls = 0;
    const auto result = repeatMeasureResilient(
        [&](int) -> Result<TimedSample> {
            ++calls;
            return Status::unavailable("persistent fault");
        },
        opts);
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), ErrorCode::Unavailable);
    EXPECT_EQ(calls, 3);
}

TEST(RepeatMeasureResilient, NonRetriableErrorFailsImmediately)
{
    int calls = 0;
    const auto result = repeatMeasureResilient(
        [&](int) -> Result<TimedSample> {
            ++calls;
            return Status::dataLoss("uncorrectable ECC");
        });
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), ErrorCode::DataLoss);
    EXPECT_EQ(calls, 1);
}

TEST(RepeatMeasureResilient, OutOfMemoryAbortsLikeRepeatMeasureUntil)
{
    const auto result = repeatMeasureResilient(
        [](int rep) -> Result<TimedSample> {
            if (rep >= 3)
                return Status::outOfMemory("tile does not fit");
            return TimedSample{5.0, 1e-3};
        });
    ASSERT_TRUE(result.isOk());
    EXPECT_TRUE(result.value().aborted);
    EXPECT_EQ(result.value().samplesTaken, 3);
    EXPECT_DOUBLE_EQ(result.value().value(), 5.0);
}

TEST(RepeatMeasureResilient, HungSampleTripsTheDeadline)
{
    ResilientOptions opts;
    opts.repetitions = 10;
    opts.deadlineSec = 60.0;
    const auto result = repeatMeasureResilient(
        [](int rep) -> Result<TimedSample> {
            // Repetition 1 "hangs": its simulated duration dwarfs any
            // sane per-point deadline.
            return TimedSample{1.0, rep == 1 ? 1e9 : 1e-3};
        },
        opts);
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), ErrorCode::DeadlineExceeded);
}

TEST(RepeatMeasureResilient, SimulatedBackoffChargesTheDeadline)
{
    // Every attempt is cheap, but the retry backoff alone blows the
    // deadline: the point must fail DeadlineExceeded, not spin.
    ResilientOptions opts;
    opts.repetitions = 10;
    opts.deadlineSec = 0.04;
    opts.retry.initialBackoffSec = 0.05;
    int failures_left = 1;
    const auto result = repeatMeasureResilient(
        [&](int) -> Result<TimedSample> {
            if (failures_left > 0) {
                --failures_left;
                return Status::unavailable("hiccup");
            }
            return TimedSample{1.0, 1e-3};
        },
        opts);
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), ErrorCode::DeadlineExceeded);
}

TEST(RepeatMeasureResilient, DeadlineExpiringMidBackoffNeverSleepsPast)
{
    // Deadline partially consumed by good samples, then a rep turns
    // flaky: the moment the *next* backoff would overrun the remaining
    // budget, the point fails DeadlineExceeded without charging that
    // backoff — and without burning the rest of the retry budget on a
    // deadline that is already lost.
    ResilientOptions opts;
    opts.repetitions = 10;
    opts.deadlineSec = 0.1;
    opts.retry.maxAttempts = 100; // attempts are not the limiter here
    opts.retry.initialBackoffSec = 0.05;
    int flaky_calls = 0;
    const auto result = repeatMeasureResilient(
        [&](int rep) -> Result<TimedSample> {
            if (rep < 2)
                return TimedSample{1.0, 0.03}; // 0.06 of 0.1 consumed
            ++flaky_calls;
            return Status::unavailable("turned flaky");
        },
        opts);
    ASSERT_FALSE(result.isOk());
    // DeadlineExceeded, not the transient Unavailable: the deadline
    // expired *between* retries, and that is the truthful verdict.
    EXPECT_EQ(result.status().code(), ErrorCode::DeadlineExceeded);
    // Remaining budget was 0.04 and the first backoff is 0.05: exactly
    // one (free) attempt of the flaky rep, zero backoffs charged.
    EXPECT_EQ(flaky_calls, 1);
}

TEST(SweepResilience, FlagsRoundTrip)
{
    CliParser cli("test");
    addResilienceFlags(cli);
    const char *argv[] = {"test_bench", "--inject=oom=0.01,smi_dropout=0.05",
                          "--max-point-failures=7", "--deadline-sec=120"};
    cli.parse(4, argv);
    const SweepResilience res = resilienceFlags(cli);
    EXPECT_DOUBLE_EQ(res.faults.probability(fault::FaultSite::HbmAlloc),
                     0.01);
    EXPECT_DOUBLE_EQ(res.faults.probability(fault::FaultSite::SmiDropout),
                     0.05);
    EXPECT_EQ(res.maxPointFailures, 7u);
    EXPECT_DOUBLE_EQ(res.deadlineSec, 120.0);
    EXPECT_TRUE(res.journalPath.empty());
    EXPECT_FALSE(res.resume);
}

TEST(SweepResilience, DefaultsAreUnlimitedAndFaultFree)
{
    CliParser cli("test");
    addResilienceFlags(cli);
    const char *argv[] = {"test_bench"};
    cli.parse(1, argv);
    const SweepResilience res = resilienceFlags(cli);
    EXPECT_FALSE(res.faults.any());
    EXPECT_EQ(res.maxPointFailures,
              std::numeric_limits<std::size_t>::max());
    EXPECT_FALSE(res.resume);
    // The injector a fault-free spec builds is disabled entirely.
    EXPECT_FALSE(res.injectorFor(1234).enabled());
}

TEST(SweepResilience, ResumeFlagLoadsJournalPath)
{
    CliParser cli("test");
    addResilienceFlags(cli);
    const char *argv[] = {"test_bench", "--resume=/tmp/journal.csv"};
    cli.parse(2, argv);
    const SweepResilience res = resilienceFlags(cli);
    EXPECT_EQ(res.journalPath, "/tmp/journal.csv");
    EXPECT_TRUE(res.resume);
}

TEST(SweepResilienceDeathTest, JournalAndResumeAreExclusive)
{
    CliParser cli("test");
    addResilienceFlags(cli);
    const char *argv[] = {"test_bench", "--journal=a.csv",
                          "--resume=b.csv"};
    cli.parse(3, argv);
    EXPECT_DEATH(resilienceFlags(cli), "mutually exclusive");
}

TEST(SweepResilienceDeathTest, MalformedInjectIsFatal)
{
    CliParser cli("test");
    addResilienceFlags(cli);
    const char *argv[] = {"test_bench", "--inject=bogus=0.5"};
    cli.parse(2, argv);
    EXPECT_DEATH(resilienceFlags(cli), "bad --inject");
}

} // namespace
} // namespace bench
} // namespace mc
