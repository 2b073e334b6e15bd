/**
 * @file
 * Shared helpers for the per-figure benchmark harnesses: repeated
 * measurement with the paper's error-bound convention (>= 10
 * repetitions, error reported when the spread exceeds 2%), early sweep
 * abort (OOM), the shared --jobs flag of the parallel sweep engine,
 * and common formatting.
 */

#ifndef MC_BENCH_COMMON_BENCH_UTIL_HH
#define MC_BENCH_COMMON_BENCH_UTIL_HH

#include <cstddef>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "blas/verify.hh"
#include "common/atomic_file.hh"
#include "common/cli.hh"
#include "common/retry.hh"
#include "common/stats.hh"
#include "common/status.hh"
#include "fault/injector.hh"

namespace mc {
namespace bench {

/** A repeated measurement with the paper's reporting convention. */
struct Measurement
{
    SampleStats stats;

    /**
     * True when the sample aborted the repetition loop (e.g. the
     * sweep-terminating OOM); stats then cover only the repetitions
     * that completed before the abort.
     */
    bool aborted = false;

    /** Repetitions that produced a value. */
    int samplesTaken = 0;

    /** Transient-error retries spent across all repetitions. */
    int retries = 0;

    /** Mean of the repetitions. */
    double value() const { return stats.mean; }

    /**
     * Render the value scaled by @p scale with @p precision digits,
     * appending a +/- error bound only when the relative spread
     * exceeds 2% (Section IV's convention).
     */
    std::string format(double scale, int precision) const;
};

/**
 * Run @p sample (which returns one measured value) @p repetitions
 * times and summarize.
 */
Measurement repeatMeasure(const std::function<double()> &sample,
                          int repetitions = 10);

/**
 * Like repeatMeasure, but @p sample may return nullopt to abort the
 * remaining repetitions (the sweep-terminating condition): no zero
 * values pollute the statistics, and the returned Measurement has
 * aborted = true.
 */
Measurement
repeatMeasureUntil(const std::function<std::optional<double>()> &sample,
                   int repetitions = 10);

/** Standard "<n> TFLOPS" cell: value scaled by 1e12, one decimal. */
std::string tflopsCell(const Measurement &m);

/** A speedup range as "<min>x - <max>x" (one decimal), or "no point
 *  measured" when @p ratios is empty. */
std::string speedupRange(const std::vector<double> &ratios);

// ---- Resilient measurement ----------------------------------------------

/** One repetition's outcome: the measured value and its simulated cost. */
struct TimedSample
{
    double value = 0.0;
    /** Simulated seconds this repetition occupied the device. */
    double simSeconds = 0.0;
};

/** Knobs of repeatMeasureResilient. */
struct ResilientOptions
{
    int repetitions = 10;
    /**
     * Per-point budget of *simulated* seconds (samples plus simulated
     * retry backoff). A hung kernel reports an enormous duration, so
     * any sane deadline converts it into DeadlineExceeded instead of
     * an absurd data point.
     */
    double deadlineSec = 3600.0;
    /** Attempt budget for transient (retriable) sample errors. */
    RetryPolicy retry;
};

/**
 * The fault-hardened repetition loop. @p sample receives the
 * repetition index and returns the measured value plus its simulated
 * duration, or an error:
 *
 *  - transient errors (Unavailable, ...) are retried up to the policy's
 *    attempt budget with deterministic simulated backoff — the rep
 *    index is stable across attempts, so a retry that succeeds yields
 *    exactly the value an uninterrupted run would have measured;
 *  - OutOfMemory aborts the remaining repetitions and returns the
 *    completed ones (aborted = true) — the paper's sweep-terminating
 *    condition, not a fault;
 *  - exhausted retries and other errors fail the point with the last
 *    error; exceeding the simulated-time deadline fails the point with
 *    DeadlineExceeded.
 */
Result<Measurement> repeatMeasureResilient(
    const std::function<Result<TimedSample>(int)> &sample,
    const ResilientOptions &opts = ResilientOptions());

// ---- Sweep resilience flags ---------------------------------------------

/** Parsed --inject / --max-point-failures / --deadline-sec / --journal /
 *  --resume configuration of one sweep bench. */
struct SweepResilience
{
    /** Fault probabilities (all zero without --inject). */
    fault::FaultSpec faults;
    /** Failed points tolerated before the sweep is cancelled. */
    std::size_t maxPointFailures = std::numeric_limits<std::size_t>::max();
    /** Per-point simulated-time deadline, seconds. */
    double deadlineSec = 3600.0;
    /** Journal file to append to; empty = no journal. */
    std::string journalPath;
    /** True when resuming: load the journal, re-run only failed points. */
    bool resume = false;

    /** Per-point injector seeded for @p point_seed (see faultSeed). */
    fault::Injector injectorFor(std::uint64_t point_seed) const
    {
        return fault::Injector(faults, fault::faultSeed(point_seed));
    }
};

/**
 * Register the resilience flags on a sweep bench (see
 * docs/RESILIENCE.md for semantics).
 */
void addResilienceFlags(CliParser &cli);

/** Read the resilience flags back; fatal on a malformed --inject. */
SweepResilience resilienceFlags(const CliParser &cli);

// ---- Sweep failure reporting --------------------------------------------

/** One failed sweep point, for the end-of-run summary. */
struct FailedPoint
{
    std::size_t index = 0;
    std::string key;
    Status status;
};

/**
 * Print the sweep's resilience summary to *stderr* — stdout carries
 * only the rendered results, so faulted runs stay byte-comparable
 * across --jobs values and across resume. Failed points are listed
 * individually; nothing is printed for a fully clean, non-resumed run.
 */
void printSweepSummary(const std::string &bench_name,
                       std::size_t total_points,
                       const std::vector<FailedPoint> &failed,
                       std::size_t skipped, std::size_t resumed);

/**
 * Register the sweep engine's --jobs flag (default 1 = serial;
 * rejects values < 1 at parse time). Output is byte-identical for
 * every --jobs value; see docs/SWEEP_ENGINE.md.
 */
void addJobsFlag(CliParser &cli);

/** Read --jobs back (parse() already rejected values < 1). */
int jobsFlag(const CliParser &cli);

/** Register --reps (measurement repetitions, must be >= 1). */
void addRepsFlag(CliParser &cli, std::int64_t default_reps);

// ---- Plan cache and verification flags ----------------------------------

/**
 * Register --plan-cache-cap (LRU entry bound of every GemmEngine plan
 * cache constructed after applyPlanCacheFlag; 0 = unbounded). The
 * default is generous — far above any one sweep's working set — so the
 * cap only matters for long supervised suite runs.
 */
void addPlanCacheFlag(CliParser &cli);

/** Apply --plan-cache-cap process-wide (PlanCache::setDefaultCapacity);
 *  call after parse() and before constructing engines. */
void applyPlanCacheFlag(const CliParser &cli);

/**
 * Register --pack-cache-mb (byte cap, in MiB, of the process-wide
 * packed-operand cache; 0 = disabled). The MC_PACK_CACHE environment
 * variable ("off" or a MiB count) overrides the flag — see
 * docs/PERF.md "Operand packing & reuse".
 */
void addPackCacheFlag(CliParser &cli);

/** Apply --pack-cache-mb process-wide (PackCache::configureCapacityMb);
 *  call after parse() and before running GEMMs. */
void applyPackCacheFlag(const CliParser &cli);

/** Parsed --verify* configuration of a GEMM sweep bench. */
struct VerifyConfig
{
    /** False = verification skipped entirely. */
    bool enabled = false;
    /** Largest dimension verified: points with max(m, n, k) above this
     *  skip the O(n^3) host check (reported as "not verified", not as
     *  a failure). */
    std::size_t maxN = 2048;
    blas::VerifyScheme scheme = blas::VerifyScheme::PaperOnesIdentity;
    /** Thread/block knobs of the functional backend (results are
     *  identical for every setting; see docs/PERF.md). */
    blas::FunctionalGemmOptions func;

    /** True when a point of this shape should be verified. */
    bool shouldVerify(std::size_t m, std::size_t n, std::size_t k) const
    {
        return enabled && m <= maxN && n <= maxN && k <= maxN;
    }
};

/**
 * Register the verification flags: --verify (default @p default_enabled),
 * --verify-maxn, --verify-scheme (paper|random), --verify-threads.
 */
void addVerifyFlags(CliParser &cli, bool default_enabled);

/** Read the verification flags back; fatal on a bad --verify-scheme. */
VerifyConfig verifyFlags(const CliParser &cli);

// ---- Durable output and completion protocol -----------------------------

/**
 * Register --out: when set, everything the bench renders to its result
 * stream is buffered and atomically published to that file (temp +
 * fsync + rename; src/common/atomic_file.hh) instead of stdout, so a
 * crashed or killed bench never leaves a torn CSV behind.
 */
void addOutFlag(CliParser &cli);

/**
 * The bench's result stream: stdout by default, an atomically
 * committed file under --out. finish() seals the output and ends the
 * process-level protocol in one call:
 *
 *     return output.finish(kBenchName, code);
 *
 * It commits the --out file (a failed commit turns an Ok run into
 * DataLoss — a result that was not durably written was not produced),
 * prints the machine-readable completion line mc_suite scans for, and
 * returns the manifest-friendly exit code (exitCodeFor).
 */
class BenchOutput
{
  public:
    /** Reads --out (addOutFlag must have been registered). */
    explicit BenchOutput(const CliParser &cli);

    /** The stream benches render results into. */
    std::ostream &stream();

    /** Seal the output; returns the process exit code. */
    int finish(const std::string &bench_name,
               ErrorCode code = ErrorCode::Ok);

  private:
    std::optional<AtomicFileWriter> _writer;
};

/**
 * Completion protocol for benches without a BenchOutput: print the
 * stderr completion line (`[mcchar] complete bench=<name> ...`) and
 * return the exit code for @p code. Every bench main ends through
 * here or BenchOutput::finish so the mc_suite supervisor can classify
 * outcomes without parsing results.
 */
int finishBench(const std::string &bench_name,
                ErrorCode code = ErrorCode::Ok);

} // namespace bench
} // namespace mc

#endif // MC_BENCH_COMMON_BENCH_UTIL_HH
