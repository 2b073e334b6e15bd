/**
 * @file
 * Supervised worker execution: the degradation ladder end to end.
 *
 * These tests fork real child processes (SIGKILL, SIGSEGV, hangs), so
 * they live in their own binary under the "supervisor" label — the
 * same exclusion hatch as test_supervisor.
 */

#include <latch>
#include <memory>
#include <string>
#include <thread>

#include <sys/wait.h>

#include <gtest/gtest.h>

#include "blas/plan_cache.hh"
#include "serve/engine.hh"
#include "serve/protocol.hh"
#include "serve/worker.hh"

namespace mc {
namespace serve {
namespace {

ServeRequest
parse(const std::string &json)
{
    auto parsed = parseRequest(json);
    EXPECT_TRUE(parsed.isOk()) << parsed.status().toString();
    return parsed.value();
}

WorkerOptions
fastOptions()
{
    WorkerOptions options;
    options.deadlineSec = 20.0;
    options.graceSec = 0.2;
    options.engine.allowChaos = true;
    return options;
}

// Linux wait-status encoding: exit code n is n << 8, death by signal s
// is s (low 7 bits). Cleaner than forking just to build a status word.
constexpr int
exitedWith(int code)
{
    return code << 8;
}

TEST(ClassifyWorkerExit, LadderMapping)
{
    // Watchdog beats every other signal — a SIGKILL the *watchdog*
    // sent is an overrun, not an outside kill.
    EXPECT_EQ(classifyWorkerExit(SIGKILL, true),
              ErrorCode::DeadlineExceeded);
    EXPECT_EQ(classifyWorkerExit(SIGTERM, true),
              ErrorCode::DeadlineExceeded);

    // An outside SIGKILL is retriable Unavailable here — not the suite
    // supervisor's ResourceExhausted (machine-wide OOM) reading.
    EXPECT_EQ(classifyWorkerExit(SIGKILL, false), ErrorCode::Unavailable);
    EXPECT_EQ(classifyWorkerExit(SIGTERM, false), ErrorCode::Unavailable);
    EXPECT_EQ(classifyWorkerExit(SIGINT, false), ErrorCode::Unavailable);
    EXPECT_EQ(classifyWorkerExit(SIGHUP, false), ErrorCode::Unavailable);

    // Crash signals.
    EXPECT_EQ(classifyWorkerExit(SIGSEGV, false), ErrorCode::Internal);
    EXPECT_EQ(classifyWorkerExit(SIGABRT, false), ErrorCode::Internal);

    // Exits follow the exit-code contract of docs/RESILIENCE.md.
    EXPECT_EQ(classifyWorkerExit(exitedWith(exit_code::Ok), false),
              ErrorCode::Ok);
    EXPECT_EQ(
        classifyWorkerExit(exitedWith(exit_code::BudgetExhausted), false),
        ErrorCode::ResourceExhausted);
    EXPECT_EQ(classifyWorkerExit(exitedWith(exit_code::Usage), false),
              ErrorCode::InvalidArgument);
    EXPECT_EQ(classifyWorkerExit(exitedWith(exit_code::Failure), false),
              ErrorCode::Internal);
}

TEST(RunInWorker, MatchesInProcessExecutionByteForByte)
{
    // Worker placement must be invisible in the payload: the isolation
    // policy may move a request between the daemon process and a
    // worker without changing a single response byte.
    const ServeRequest req =
        parse(R"({"kind":"gemm","n":64,"reps":2})");
    auto direct = executePayload(req, {});
    auto forked = runInWorker(req, fastOptions());
    ASSERT_TRUE(direct.isOk()) << direct.status().toString();
    ASSERT_TRUE(forked.isOk()) << forked.status().toString();
    EXPECT_EQ(direct.value().serialize(0), forked.value().serialize(0));
}

TEST(RunInWorker, ForkWhileAnotherSlotHoldsThePlanCacheLock)
{
    // Another daemon slot is planning inside the shared cache's
    // findOrCompute (blocked on a latch here) when this request forks
    // its worker. The child inherits that mutex locked with no thread
    // to unlock it, so it must not touch the shared cache at all.
    auto cache = std::make_shared<blas::PlanCache>();
    std::latch entered(1);
    std::latch release(1);
    std::thread holder([&] {
        cache->findOrCompute(blas::PlanKey{}, [&] {
            entered.count_down();
            release.wait();
            return blas::GemmPlan{};
        });
    });
    entered.wait();

    WorkerOptions options = fastOptions();
    options.deadlineSec = 5.0;
    options.engine.planCache = cache;
    const ServeRequest req =
        parse(R"({"kind":"gemm","n":64,"reps":2})");
    auto forked = runInWorker(req, options);
    release.count_down();
    holder.join();

    ASSERT_TRUE(forked.isOk()) << forked.status().toString();
    auto direct = executePayload(req, {});
    ASSERT_TRUE(direct.isOk()) << direct.status().toString();
    EXPECT_EQ(direct.value().serialize(0), forked.value().serialize(0));
}

TEST(RunInWorker, ClassifiedErrorsCrossThePipeIntact)
{
    // executePayload's own verdicts (here: a chaos refusal, because the
    // child's engine options disable chaos) come back as the original
    // ErrorCode, not flattened into Internal.
    WorkerOptions options = fastOptions();
    options.engine.allowChaos = false;
    const ServeRequest req =
        parse(R"({"kind":"gemm","n":32,"chaos":"segv"})");
    auto result = runInWorker(req, options);
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), ErrorCode::FailedPrecondition);
}

TEST(RunInWorker, Kill9DegradesToUnavailable)
{
    const ServeRequest req =
        parse(R"({"kind":"gemm","n":32,"chaos":"kill9"})");
    auto result = runInWorker(req, fastOptions());
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), ErrorCode::Unavailable);

    // Degraded responses replay byte-identically: deterministic
    // message, no pid or timing text.
    auto again = runInWorker(req, fastOptions());
    ASSERT_FALSE(again.isOk());
    EXPECT_EQ(result.status().toString(), again.status().toString());
}

TEST(RunInWorker, SegvDegradesToInternal)
{
    const ServeRequest req =
        parse(R"({"kind":"gemm","n":32,"chaos":"segv"})");
    auto result = runInWorker(req, fastOptions());
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), ErrorCode::Internal);
}

TEST(RunInWorker, Exit3DegradesToResourceExhausted)
{
    const ServeRequest req =
        parse(R"({"kind":"gemm","n":32,"chaos":"exit3"})");
    auto result = runInWorker(req, fastOptions());
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), ErrorCode::ResourceExhausted);
}

TEST(RunInWorker, HangTripsTheWatchdogAsDeadlineExceeded)
{
    WorkerOptions options = fastOptions();
    options.deadlineSec = 0.5;
    const ServeRequest req =
        parse(R"({"kind":"gemm","n":32,"chaos":"hang"})");
    auto result = runInWorker(req, options);
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), ErrorCode::DeadlineExceeded);
}

} // namespace
} // namespace serve
} // namespace mc
