/**
 * @file
 * Process-level suite supervisor: watchdog, crash isolation, restarts.
 *
 * Reproducing the paper end-to-end means running the whole figure
 * suite — hours of sweeps — unattended. PR 2 made a *single* sweep
 * resilient to faults simulated inside its own process; this layer
 * supervises the benches themselves as OS child processes, so the
 * failures only an operating system can deliver — a segfault, an
 * OOM-kill, a genuine wall-clock hang — cost one bench attempt instead
 * of the night's run.
 *
 * Each bench in a SuitePlan is fork/exec'd into its own process group
 * with stdout/stderr captured to per-bench log files. A per-bench
 * *wall-clock* watchdog (unlike PR 2's simulated-time deadlines, this
 * catches real hangs) escalates SIGTERM → SIGKILL on the whole group,
 * through exec::ChildProcess (child_process.hh), which wakes on the
 * child's exit and gives it a parent-death SIGKILL so even a SIGKILLed
 * supervisor leaves no orphans. Exit statuses and termination signals are
 * classified into the ErrorCode taxonomy, crashes and timeouts are
 * retried under a RetryPolicy restart budget (real wall-clock backoff
 * this time), and every bench's command, attempts, and outcome land in
 * a JSON run manifest written atomically after each bench — the
 * manifest is what --resume reads to skip completed benches, composing
 * with the per-point --journal/--resume inside each bench.
 *
 * A bench that exhausts its restart budget is recorded as failed and
 * the suite *continues*; the suite-level exit code turns nonzero only
 * at the end. See docs/RESILIENCE.md ("Suite supervision").
 */

#ifndef MC_EXEC_SUPERVISOR_HH
#define MC_EXEC_SUPERVISOR_HH

#include <string>
#include <vector>

#include "common/json.hh"
#include "common/retry.hh"
#include "common/status.hh"

namespace mc {
namespace exec {

/** One bench process declared in a suite plan. */
struct BenchSpec
{
    /** Unique name; also names the log files and manifest entry. */
    std::string name;

    /** Command line; argv[0] is the executable (PATH-resolved). */
    std::vector<std::string> argv;

    /** Wall-clock watchdog deadline, seconds; 0 = suite default. */
    double deadlineSec = 0.0;

    /** Attempt budget (including the first); 0 = suite default. */
    int maxAttempts = 0;

    /**
     * Output files the bench writes (relative to the run directory),
     * recorded in the manifest so tooling can locate results.
     */
    std::vector<std::string> outputs;
};

/**
 * A declared plan of benches, in execution order.
 *
 * Text form, one bench per line (see docs/RESILIENCE.md):
 *
 *     # mcchar suite plan v1
 *     bench fig6 deadline=120 attempts=3 out=fig6.csv : \
 *         /path/to/fig6_gemm_fp --csv --out=fig6.csv
 *
 * `bench <name> [deadline=S] [attempts=N] [out=FILE]... : <argv...>`,
 * blank lines and `#` comments ignored. Repeat out= for multiple
 * outputs. Tokens are whitespace-split; single or double quotes keep
 * spaces inside one argv token (no escape sequences).
 */
struct SuitePlan
{
    std::vector<BenchSpec> benches;

    /** Parse the text form; errors name the offending line. */
    static Result<SuitePlan> parse(const std::string &text);

    /** Load and parse a plan file. */
    static Result<SuitePlan> load(const std::string &path);
};

/** One fork/exec attempt of a bench. */
struct AttemptOutcome
{
    ErrorCode code = ErrorCode::Internal;

    /** Child exit status when it exited; -1 when killed by a signal. */
    int exitStatus = -1;

    /** Terminating signal when killed; 0 when it exited. */
    int signal = 0;

    /** True when the wall-clock watchdog triggered the termination. */
    bool watchdogFired = false;

    /** Wall-clock duration of the attempt, seconds. */
    double durationSec = 0.0;
};

/** Final, manifest-recorded outcome of one bench. */
struct BenchOutcome
{
    std::string name;
    std::vector<std::string> command;
    std::vector<AttemptOutcome> attempts;

    /** The last attempt's classification (Ok on success). */
    ErrorCode code = ErrorCode::Internal;

    /** True when the bench printed its machine-readable completion line. */
    bool completionLineSeen = false;

    /** True when --resume satisfied this bench from a prior manifest. */
    bool resumedFromManifest = false;

    /** Log file names, relative to the run directory. */
    std::string stdoutLog;
    std::string stderrLog;

    /** Declared output files, relative to the run directory. */
    std::vector<std::string> outputs;

    bool ok() const { return code == ErrorCode::Ok; }
};

/** Result of running a whole plan. */
struct SuiteResult
{
    std::vector<BenchOutcome> benches;

    /** True when SIGINT/SIGTERM (requestShutdown) stopped the suite. */
    bool interrupted = false;

    bool
    allOk() const
    {
        if (interrupted)
            return false;
        for (const BenchOutcome &bench : benches)
            if (!bench.ok())
                return false;
        return true;
    }
};

/** Supervision policy knobs. */
struct SupervisorOptions
{
    /** Directory for the manifest, logs, and children's cwd. */
    std::string runDir = ".";

    /**
     * Restart budget and backoff schedule. Unlike PR 2's simulated
     * backoff, the supervisor really sleeps: it is pacing a live
     * machine, not a simulator.
     */
    RetryPolicy restart;

    /** Watchdog deadline for benches that do not set one; 0 = none. */
    double defaultDeadlineSec = 0.0;

    /** Seconds between SIGTERM and SIGKILL during escalation. */
    double killGraceSec = 2.0;

    /** Load the manifest and skip benches already recorded complete. */
    bool resume = false;

    /** Emit one progress line per attempt on stderr. */
    bool echoProgress = true;

    /**
     * Test hook: raise SIGKILL on the supervisor itself after this
     * many benches have completed and been recorded (-1 = never).
     * Exercises exactly the crash the manifest protects against.
     */
    int killAfterBenches = -1;
};

/**
 * Prefix of the machine-readable completion line every bench prints on
 * stderr as its last act (`[mcchar] complete bench=<name> code=<code>
 * exit=<n>`). The supervisor records whether it appeared; its absence
 * on an exit-0 child flags a wrapper script or wrong binary.
 */
inline constexpr const char *kBenchCompletionPrefix =
    "[mcchar] complete bench=";

/**
 * Classify a waitpid(2) status: exit codes map through
 * errorCodeForExitStatus; signals map to DeadlineExceeded when the
 * watchdog fired, otherwise SIGKILL → ResourceExhausted (the OOM
 * killer's signature), externally sent termination signals →
 * Unavailable, and crash signals (SIGSEGV, SIGABRT, ...) → Internal.
 */
ErrorCode classifyWaitStatus(int wait_status, bool watchdog_fired);

/**
 * Whether a failed attempt is worth a restart: everything except
 * usage errors (InvalidArgument, Unsupported) and a missing executable
 * (NotFound) — those never heal by retrying.
 */
bool supervisorRetriable(ErrorCode code);

/** Serialize one bench outcome as its manifest entry. */
JsonValue benchOutcomeToJson(const BenchOutcome &outcome);

/** Parse a manifest entry back (inverse of benchOutcomeToJson). */
Result<BenchOutcome> benchOutcomeFromJson(const JsonValue &entry);

/**
 * Runs a SuitePlan to completion under supervision.
 *
 * run() executes benches in plan order; every outcome is appended to
 * the manifest (rewritten atomically after each bench) so a killed
 * supervisor can resume at bench granularity. Environmental failures
 * (unwritable run directory, corrupt manifest on resume) are the only
 * Status errors; bench failures are values inside SuiteResult.
 */
class Supervisor
{
  public:
    Supervisor(SuitePlan plan, SupervisorOptions options);

    Result<SuiteResult> run();

    /** The manifest path inside the run directory. */
    std::string manifestPath() const;

    /**
     * Async-signal-safe shutdown request (call from SIGINT/SIGTERM
     * handlers): the supervisor kills the running child's process
     * group, records the interruption, writes the manifest, and stops.
     */
    static void requestShutdown();

  private:
    AttemptOutcome runAttempt(const BenchSpec &bench, int attempt_no,
                              double deadline_sec);
    BenchOutcome runBench(const BenchSpec &bench);
    Status writeManifest(const std::vector<BenchOutcome> &outcomes) const;
    Result<std::vector<BenchOutcome>> loadManifest() const;

    SuitePlan _plan;
    SupervisorOptions _options;
};

} // namespace exec
} // namespace mc

#endif // MC_EXEC_SUPERVISOR_HH
