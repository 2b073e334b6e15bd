/**
 * @file
 * Tests of the process-level suite supervisor: plan parsing, wait-
 * status classification, manifest (de)serialization, and end-to-end
 * supervision of real child processes — clean exits, nonzero exits,
 * crash signals, hangs past the watchdog, restart budgets, and
 * manifest-driven resume. Children are scripted with /bin/sh so every
 * failure mode is deterministic.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/types.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exec/supervisor.hh"

namespace mc {
namespace exec {
namespace {

/** Unique run directory per test; removed recursively on destruction. */
class TempRunDir
{
  public:
    explicit TempRunDir(const std::string &name)
        : _path(std::string(::testing::TempDir()) + "mc_suite_" + name)
    {
        removeAll();
        ::mkdir(_path.c_str(), 0777);
    }

    ~TempRunDir() { removeAll(); }

    const std::string &str() const { return _path; }

    std::string
    file(const std::string &name) const
    {
        return _path + "/" + name;
    }

  private:
    void
    removeAll()
    {
        // The supervisor writes a flat directory: logs + manifest.
        std::system(("rm -rf '" + _path + "'").c_str());
    }

    std::string _path;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

BenchSpec
shellBench(const std::string &name, const std::string &script)
{
    BenchSpec bench;
    bench.name = name;
    bench.argv = {"/bin/sh", "-c", script};
    return bench;
}

SupervisorOptions
quietOptions(const TempRunDir &dir)
{
    SupervisorOptions options;
    options.runDir = dir.str();
    options.echoProgress = false;
    options.restart.maxAttempts = 1;
    options.restart.initialBackoffSec = 0.01;
    return options;
}

// ---- Plan parsing --------------------------------------------------------

TEST(SuitePlan, ParsesBenchesWithOptionsAndComments)
{
    auto plan = SuitePlan::parse(
        "# mcchar suite plan\n"
        "\n"
        "bench fig6 deadline=120 attempts=3 out=fig6.csv : "
        "./fig6_gemm_fp --csv --out=fig6.csv\n"
        "bench fig7 : ./fig7_gemm_mixed --reps 5\n");
    ASSERT_TRUE(plan.isOk()) << plan.status().toString();
    ASSERT_EQ(plan.value().benches.size(), 2u);

    const BenchSpec &fig6 = plan.value().benches[0];
    EXPECT_EQ(fig6.name, "fig6");
    EXPECT_DOUBLE_EQ(fig6.deadlineSec, 120.0);
    EXPECT_EQ(fig6.maxAttempts, 3);
    ASSERT_EQ(fig6.outputs.size(), 1u);
    EXPECT_EQ(fig6.outputs[0], "fig6.csv");
    const std::vector<std::string> argv = {"./fig6_gemm_fp", "--csv",
                                           "--out=fig6.csv"};
    EXPECT_EQ(fig6.argv, argv);

    const BenchSpec &fig7 = plan.value().benches[1];
    EXPECT_DOUBLE_EQ(fig7.deadlineSec, 0.0);
    EXPECT_EQ(fig7.maxAttempts, 0);
    EXPECT_TRUE(fig7.outputs.empty());
}

TEST(SuitePlan, QuotedTokensKeepSpaces)
{
    auto plan = SuitePlan::parse(
        "bench sh : /bin/sh -c 'sleep 1; exit 0'\n");
    ASSERT_TRUE(plan.isOk()) << plan.status().toString();
    ASSERT_EQ(plan.value().benches[0].argv.size(), 3u);
    EXPECT_EQ(plan.value().benches[0].argv[2], "sleep 1; exit 0");
}

TEST(SuitePlan, RejectsMalformedLinesWithLineNumbers)
{
    const char *bad[] = {
        "bench missing-separator ./prog --flag\n",
        "bench : ./prog\n",                        // empty name
        "bench x :\n",                             // empty command
        "bench x deadline=soon : ./prog\n",        // bad number
        "bench x deadline=nan : ./prog\n",         // not finite
        "bench x deadline=inf : ./prog\n",
        "bench x deadline=1e400 : ./prog\n",       // overflows to inf
        "bench x attempts=99999999999 : ./prog\n", // beyond INT_MAX
        "bench x attempts=4294967295 : ./prog\n",
        "run x : ./prog\n",                        // unknown directive
        "bench dup : ./a\nbench dup : ./b\n",      // duplicate name
    };
    for (const char *text : bad) {
        auto plan = SuitePlan::parse(text);
        EXPECT_FALSE(plan.isOk()) << "accepted: " << text;
        EXPECT_NE(plan.status().toString().find("line"),
                  std::string::npos)
            << plan.status().toString();
    }
    EXPECT_FALSE(SuitePlan::parse("").isOk()) << "accepted empty plan";
}

// ---- Wait-status classification ------------------------------------------

int
exitedStatus(int code)
{
    return (code & 0xff) << 8; // waitpid encoding of _exit(code)
}

int
signaledStatus(int sig)
{
    return sig & 0x7f; // waitpid encoding of a signal death
}

TEST(ClassifyWaitStatus, ExitCodesMapThroughProtocol)
{
    EXPECT_EQ(classifyWaitStatus(exitedStatus(exit_code::Ok), false),
              ErrorCode::Ok);
    EXPECT_EQ(classifyWaitStatus(exitedStatus(exit_code::Failure), false),
              ErrorCode::Internal);
    EXPECT_EQ(classifyWaitStatus(exitedStatus(exit_code::Usage), false),
              ErrorCode::InvalidArgument);
    EXPECT_EQ(classifyWaitStatus(
                  exitedStatus(exit_code::BudgetExhausted), false),
              ErrorCode::ResourceExhausted);
    EXPECT_EQ(classifyWaitStatus(
                  exitedStatus(exit_code::DataLossExit), false),
              ErrorCode::DataLoss);
    EXPECT_EQ(classifyWaitStatus(
                  exitedStatus(exit_code::ExecFailed), false),
              ErrorCode::NotFound);
}

TEST(ClassifyWaitStatus, SignalsClassifyByCause)
{
    // Watchdog-initiated termination wins over the signal identity.
    EXPECT_EQ(classifyWaitStatus(signaledStatus(SIGTERM), true),
              ErrorCode::DeadlineExceeded);
    EXPECT_EQ(classifyWaitStatus(signaledStatus(SIGKILL), true),
              ErrorCode::DeadlineExceeded);
    // Unprompted SIGKILL is the OOM killer's signature.
    EXPECT_EQ(classifyWaitStatus(signaledStatus(SIGKILL), false),
              ErrorCode::ResourceExhausted);
    // External administrative signals.
    EXPECT_EQ(classifyWaitStatus(signaledStatus(SIGTERM), false),
              ErrorCode::Unavailable);
    // Crashes.
    EXPECT_EQ(classifyWaitStatus(signaledStatus(SIGSEGV), false),
              ErrorCode::Internal);
    EXPECT_EQ(classifyWaitStatus(signaledStatus(SIGABRT), false),
              ErrorCode::Internal);
}

TEST(SupervisorRetriable, UsageAndMissingBinaryAreNot)
{
    EXPECT_FALSE(supervisorRetriable(ErrorCode::Ok));
    EXPECT_FALSE(supervisorRetriable(ErrorCode::InvalidArgument));
    EXPECT_FALSE(supervisorRetriable(ErrorCode::Unsupported));
    EXPECT_FALSE(supervisorRetriable(ErrorCode::NotFound));
    // Crashes, hangs, and resource exhaustion all earn a restart.
    EXPECT_TRUE(supervisorRetriable(ErrorCode::Internal));
    EXPECT_TRUE(supervisorRetriable(ErrorCode::DeadlineExceeded));
    EXPECT_TRUE(supervisorRetriable(ErrorCode::ResourceExhausted));
    EXPECT_TRUE(supervisorRetriable(ErrorCode::Unavailable));
}

// ---- Manifest entries ----------------------------------------------------

TEST(BenchOutcomeJson, RoundTrips)
{
    BenchOutcome outcome;
    outcome.name = "fig6";
    outcome.command = {"./fig6_gemm_fp", "--csv"};
    outcome.code = ErrorCode::DeadlineExceeded;
    outcome.completionLineSeen = false;
    outcome.stdoutLog = "fig6.stdout.log";
    outcome.stderrLog = "fig6.stderr.log";
    outcome.outputs = {"fig6.csv"};
    AttemptOutcome attempt;
    attempt.code = ErrorCode::DeadlineExceeded;
    attempt.signal = SIGKILL;
    attempt.watchdogFired = true;
    attempt.durationSec = 1.5;
    outcome.attempts = {attempt, attempt};

    auto parsed = benchOutcomeFromJson(benchOutcomeToJson(outcome));
    ASSERT_TRUE(parsed.isOk()) << parsed.status().toString();
    const BenchOutcome &back = parsed.value();
    EXPECT_EQ(back.name, outcome.name);
    EXPECT_EQ(back.command, outcome.command);
    EXPECT_EQ(back.code, ErrorCode::DeadlineExceeded);
    EXPECT_EQ(back.outputs, outcome.outputs);
    ASSERT_EQ(back.attempts.size(), 2u);
    EXPECT_EQ(back.attempts[0].signal, SIGKILL);
    EXPECT_TRUE(back.attempts[0].watchdogFired);
    EXPECT_DOUBLE_EQ(back.attempts[0].durationSec, 1.5);
}

TEST(BenchOutcomeJson, RejectsNonObjectEntries)
{
    EXPECT_FALSE(benchOutcomeFromJson(JsonValue(1.0)).isOk());
    EXPECT_FALSE(benchOutcomeFromJson(JsonValue::array()).isOk());
}

// ---- End-to-end supervision ----------------------------------------------

TEST(Supervisor, CleanExitIsOk)
{
    TempRunDir dir("clean");
    SuitePlan plan;
    plan.benches.push_back(
        shellBench("good", "echo out; echo err >&2; exit 0"));
    Supervisor supervisor(plan, quietOptions(dir));

    auto result = supervisor.run();
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    ASSERT_EQ(result.value().benches.size(), 1u);
    const BenchOutcome &bench = result.value().benches[0];
    EXPECT_TRUE(bench.ok());
    EXPECT_EQ(bench.attempts.size(), 1u);
    EXPECT_EQ(bench.attempts[0].exitStatus, 0);
    EXPECT_TRUE(result.value().allOk());

    // stdout and stderr land in separate per-bench logs.
    EXPECT_EQ(readFile(dir.file(bench.stdoutLog)), "out\n");
    EXPECT_EQ(readFile(dir.file(bench.stderrLog)), "err\n");
}

TEST(Supervisor, CompletionLineIsDetected)
{
    TempRunDir dir("completion");
    SuitePlan plan;
    plan.benches.push_back(shellBench(
        "protocol",
        "echo '[mcchar] complete bench=protocol code=Ok exit=0' >&2"));
    plan.benches.push_back(shellBench("silent", "exit 0"));
    Supervisor supervisor(plan, quietOptions(dir));

    auto result = supervisor.run();
    ASSERT_TRUE(result.isOk());
    EXPECT_TRUE(result.value().benches[0].completionLineSeen);
    EXPECT_FALSE(result.value().benches[1].completionLineSeen);
}

TEST(Supervisor, NonzeroExitExhaustsRestartBudget)
{
    TempRunDir dir("nonzero");
    SuitePlan plan;
    plan.benches.push_back(shellBench("fails", "exit 1"));
    plan.benches.push_back(shellBench("after", "exit 0"));
    SupervisorOptions options = quietOptions(dir);
    options.restart.maxAttempts = 3;
    Supervisor supervisor(plan, options);

    auto result = supervisor.run();
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    const BenchOutcome &failed = result.value().benches[0];
    EXPECT_FALSE(failed.ok());
    EXPECT_EQ(failed.code, ErrorCode::Internal);
    // All three attempts spent, each recorded.
    ASSERT_EQ(failed.attempts.size(), 3u);
    for (const AttemptOutcome &attempt : failed.attempts)
        EXPECT_EQ(attempt.exitStatus, 1);

    // Graceful degradation: the suite continued past the failure.
    EXPECT_TRUE(result.value().benches[1].ok());
    EXPECT_FALSE(result.value().allOk());
}

TEST(Supervisor, UsageErrorIsNotRetried)
{
    TempRunDir dir("usage");
    SuitePlan plan;
    plan.benches.push_back(shellBench("usage", "exit 2"));
    SupervisorOptions options = quietOptions(dir);
    options.restart.maxAttempts = 3;
    Supervisor supervisor(plan, options);

    auto result = supervisor.run();
    ASSERT_TRUE(result.isOk());
    const BenchOutcome &bench = result.value().benches[0];
    EXPECT_EQ(bench.code, ErrorCode::InvalidArgument);
    // Re-running the same wrong command line cannot help.
    EXPECT_EQ(bench.attempts.size(), 1u);
}

TEST(Supervisor, MissingExecutableIsNotFound)
{
    TempRunDir dir("missing");
    SuitePlan plan;
    BenchSpec bench;
    bench.name = "ghost";
    bench.argv = {"/no/such/binary/anywhere"};
    plan.benches.push_back(bench);
    Supervisor supervisor(plan, quietOptions(dir));

    auto result = supervisor.run();
    ASSERT_TRUE(result.isOk());
    EXPECT_EQ(result.value().benches[0].code, ErrorCode::NotFound);
    EXPECT_EQ(result.value().benches[0].attempts.size(), 1u);
}

TEST(Supervisor, CrashSignalIsRetriedAndClassified)
{
    TempRunDir dir("crash");
    SuitePlan plan;
    plan.benches.push_back(shellBench("crasher", "kill -SEGV $$"));
    SupervisorOptions options = quietOptions(dir);
    options.restart.maxAttempts = 2;
    Supervisor supervisor(plan, options);

    auto result = supervisor.run();
    ASSERT_TRUE(result.isOk());
    const BenchOutcome &bench = result.value().benches[0];
    EXPECT_EQ(bench.code, ErrorCode::Internal);
    ASSERT_EQ(bench.attempts.size(), 2u);
    for (const AttemptOutcome &attempt : bench.attempts) {
        EXPECT_EQ(attempt.signal, SIGSEGV);
        EXPECT_EQ(attempt.exitStatus, -1);
        EXPECT_FALSE(attempt.watchdogFired);
    }
}

TEST(Supervisor, ExternalKillIsResourceExhausted)
{
    TempRunDir dir("oomkill");
    SuitePlan plan;
    plan.benches.push_back(shellBench("victim", "kill -KILL $$"));
    Supervisor supervisor(plan, quietOptions(dir));

    auto result = supervisor.run();
    ASSERT_TRUE(result.isOk());
    const BenchOutcome &bench = result.value().benches[0];
    EXPECT_EQ(bench.code, ErrorCode::ResourceExhausted);
    EXPECT_EQ(bench.attempts[0].signal, SIGKILL);
    EXPECT_FALSE(bench.attempts[0].watchdogFired);
}

TEST(Supervisor, WatchdogEscalatesOnHang)
{
    TempRunDir dir("hang");
    SuitePlan plan;
    // Ignores SIGTERM and busy-waits, so only the SIGKILL escalation
    // can end it (a `sleep` child would die to the group SIGTERM and
    // let the shell exit normally).
    BenchSpec bench = shellBench(
        "hung", "trap '' TERM; while :; do :; done");
    bench.deadlineSec = 0.3;
    plan.benches.push_back(bench);
    SupervisorOptions options = quietOptions(dir);
    options.killGraceSec = 0.2;
    Supervisor supervisor(plan, options);

    auto result = supervisor.run();
    ASSERT_TRUE(result.isOk());
    const BenchOutcome &hung = result.value().benches[0];
    EXPECT_EQ(hung.code, ErrorCode::DeadlineExceeded);
    ASSERT_EQ(hung.attempts.size(), 1u);
    EXPECT_TRUE(hung.attempts[0].watchdogFired);
    // Escalation past the TERM trap means SIGKILL delivered the blow.
    EXPECT_EQ(hung.attempts[0].signal, SIGKILL);
    // The watchdog fired near the deadline, well before sleep 60.
    EXPECT_LT(hung.attempts[0].durationSec, 10.0);
}

TEST(Supervisor, WatchdogTermIsHonoredWithinGrace)
{
    TempRunDir dir("term");
    SuitePlan plan;
    BenchSpec bench = shellBench("obedient", "sleep 60");
    bench.deadlineSec = 0.3;
    plan.benches.push_back(bench);
    SupervisorOptions options = quietOptions(dir);
    options.killGraceSec = 5.0;
    Supervisor supervisor(plan, options);

    auto result = supervisor.run();
    ASSERT_TRUE(result.isOk());
    const BenchOutcome &bench_out = result.value().benches[0];
    EXPECT_EQ(bench_out.code, ErrorCode::DeadlineExceeded);
    EXPECT_TRUE(bench_out.attempts[0].watchdogFired);
    // sh dies to the SIGTERM itself: no escalation needed.
    EXPECT_EQ(bench_out.attempts[0].signal, SIGTERM);
    EXPECT_LT(bench_out.attempts[0].durationSec, 4.0);
}

TEST(Supervisor, ManifestRecordsEveryBench)
{
    TempRunDir dir("manifest");
    SuitePlan plan;
    BenchSpec good = shellBench("good", "exit 0");
    good.outputs = {"good.csv"};
    plan.benches.push_back(good);
    plan.benches.push_back(shellBench("bad", "exit 1"));
    Supervisor supervisor(plan, quietOptions(dir));

    auto result = supervisor.run();
    ASSERT_TRUE(result.isOk());

    auto manifest = JsonValue::parse(readFile(supervisor.manifestPath()));
    ASSERT_TRUE(manifest.isOk()) << manifest.status().toString();
    const JsonValue &doc = manifest.value();
    EXPECT_EQ(doc.at("format").asString(), "mcchar suite manifest v1");
    ASSERT_EQ(doc.at("benches").size(), 2u);

    const JsonValue &good_entry = doc.at("benches").at(0u);
    EXPECT_EQ(good_entry.at("name").asString(), "good");
    EXPECT_EQ(good_entry.at("code").asString(), "Ok");
    EXPECT_EQ(good_entry.at("outputs").at(0u).asString(), "good.csv");
    ASSERT_EQ(good_entry.at("command").size(), 3u);
    EXPECT_EQ(good_entry.at("command").at(0u).asString(), "/bin/sh");

    const JsonValue &bad_entry = doc.at("benches").at(1u);
    EXPECT_EQ(bad_entry.at("code").asString(), "Internal");
    EXPECT_EQ(bad_entry.at("attempts").size(), 1u);
}

TEST(Supervisor, ResumeSkipsCompletedBenches)
{
    TempRunDir dir("resume");
    SuitePlan plan;
    // A marker file proves whether the child actually re-ran.
    plan.benches.push_back(shellBench(
        "counted", "echo ran >> counted.marker; exit 0"));
    {
        Supervisor supervisor(plan, quietOptions(dir));
        ASSERT_TRUE(supervisor.run().isOk());
    }
    EXPECT_EQ(readFile(dir.file("counted.marker")), "ran\n");

    SupervisorOptions options = quietOptions(dir);
    options.resume = true;
    Supervisor supervisor(plan, options);
    auto result = supervisor.run();
    ASSERT_TRUE(result.isOk());
    const BenchOutcome &bench = result.value().benches[0];
    EXPECT_TRUE(bench.ok());
    EXPECT_TRUE(bench.resumedFromManifest);
    // No second marker line: the child never re-executed.
    EXPECT_EQ(readFile(dir.file("counted.marker")), "ran\n");
}

TEST(Supervisor, ResumeRerunsFailedAndChangedBenches)
{
    TempRunDir dir("rerun");
    SuitePlan plan;
    plan.benches.push_back(shellBench("flaky", "exit 1"));
    {
        Supervisor supervisor(plan, quietOptions(dir));
        ASSERT_TRUE(supervisor.run().isOk());
    }

    // Same name, now-succeeding command: the manifest entry (failed,
    // and for a different command) must not satisfy it.
    SuitePlan fixed;
    fixed.benches.push_back(shellBench("flaky", "exit 0"));
    SupervisorOptions options = quietOptions(dir);
    options.resume = true;
    Supervisor supervisor(fixed, options);
    auto result = supervisor.run();
    ASSERT_TRUE(result.isOk());
    EXPECT_FALSE(result.value().benches[0].resumedFromManifest);
    EXPECT_TRUE(result.value().benches[0].ok());
}

TEST(Supervisor, AttemptLogsAppendAcrossRestarts)
{
    TempRunDir dir("logs");
    SuitePlan plan;
    plan.benches.push_back(shellBench("fails", "echo try; exit 1"));
    SupervisorOptions options = quietOptions(dir);
    options.restart.maxAttempts = 2;
    Supervisor supervisor(plan, options);

    auto result = supervisor.run();
    ASSERT_TRUE(result.isOk());
    const BenchOutcome &bench = result.value().benches[0];
    const std::string out = readFile(dir.file(bench.stdoutLog));
    // One line per attempt: attempt 1 truncates, attempt 2 appends.
    EXPECT_EQ(out, "try\ntry\n");
    // The stderr log carries the attempt separator for humans.
    EXPECT_NE(readFile(dir.file(bench.stderrLog)).find("attempt 2"),
              std::string::npos);
}

} // namespace
} // namespace exec
} // namespace mc
