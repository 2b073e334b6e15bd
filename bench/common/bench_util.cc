#include "bench_util.hh"

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <vector>

#include "blas/pack_cache.hh"
#include "blas/plan_cache.hh"
#include "blas/simd_dispatch.hh"
#include "blas/tune.hh"
#include "common/logging.hh"
#include "common/retry.hh"
#include "exec/supervisor.hh"
#include "exec/thread_pool.hh"

namespace mc {
namespace bench {

std::string
Measurement::format(double scale, int precision) const
{
    char buf[96];
    if (stats.relativeSpread() > 0.02) {
        std::snprintf(buf, sizeof(buf), "%.*f +/- %.*f", precision,
                      stats.mean * scale, precision,
                      stats.stddev * scale);
    } else {
        std::snprintf(buf, sizeof(buf), "%.*f", precision,
                      stats.mean * scale);
    }
    return buf;
}

Measurement
repeatMeasure(const std::function<double()> &sample, int repetitions)
{
    mc_assert(repetitions > 0, "at least one repetition required");
    std::vector<double> values;
    values.reserve(repetitions);
    for (int i = 0; i < repetitions; ++i)
        values.push_back(sample());
    Measurement m{summarize(values)};
    m.samplesTaken = repetitions;
    return m;
}

Measurement
repeatMeasureUntil(const std::function<std::optional<double>()> &sample,
                   int repetitions)
{
    mc_assert(repetitions > 0, "at least one repetition required");
    std::vector<double> values;
    values.reserve(repetitions);
    Measurement m;
    for (int i = 0; i < repetitions; ++i) {
        const std::optional<double> value = sample();
        if (!value) {
            m.aborted = true;
            break;
        }
        values.push_back(*value);
    }
    m.stats = summarize(values);
    m.samplesTaken = static_cast<int>(values.size());
    return m;
}

std::string
tflopsCell(const Measurement &m)
{
    return m.format(1e-12, 1);
}

std::string
speedupRange(const std::vector<double> &ratios)
{
    if (ratios.empty())
        return "no point measured";
    const auto [lo, hi] = std::minmax_element(ratios.begin(), ratios.end());
    char text[96];
    std::snprintf(text, sizeof(text), "%.1fx - %.1fx", *lo, *hi);
    return text;
}

Result<Measurement>
repeatMeasureResilient(const std::function<Result<TimedSample>(int)> &sample,
                       const ResilientOptions &opts)
{
    mc_assert(opts.repetitions > 0, "at least one repetition required");
    std::vector<double> values;
    values.reserve(opts.repetitions);
    Measurement m;
    double elapsed_sec = 0.0;

    for (int rep = 0; rep < opts.repetitions; ++rep) {
        double backoff_sec = 0.0;
        int attempts = 0;
        // Budget-bounded: a deadline that expires *between* retries
        // returns DeadlineExceeded right there instead of charging a
        // backoff that sleeps past the deadline and then reporting the
        // underlying transient error.
        const Result<TimedSample> result = retryCallWithin(
            opts.retry, opts.deadlineSec - elapsed_sec,
            [&] {
                ++attempts;
                return sample(rep);
            },
            &backoff_sec);
        m.retries += attempts - 1;
        // Simulated backoff occupies the point's deadline budget just
        // like the samples themselves.
        elapsed_sec += backoff_sec;

        if (!result.isOk()) {
            if (result.status().code() == ErrorCode::OutOfMemory) {
                // The sweep-terminating condition, not a fault: report
                // the completed repetitions (repeatMeasureUntil
                // semantics).
                m.aborted = true;
                break;
            }
            return result.status();
        }

        elapsed_sec += result.value().simSeconds;
        if (elapsed_sec > opts.deadlineSec) {
            return Status::deadlineExceeded(
                "point exceeded its simulated-time deadline (" +
                std::to_string(elapsed_sec) + " s > " +
                std::to_string(opts.deadlineSec) + " s) at repetition " +
                std::to_string(rep));
        }
        values.push_back(result.value().value);
    }

    m.stats = summarize(values);
    m.samplesTaken = static_cast<int>(values.size());
    return m;
}

void
addResilienceFlags(CliParser &cli)
{
    cli.addFlag("inject", std::string(),
                "fault probabilities, e.g. oom=0.01,smi_dropout=0.05 "
                "(see docs/RESILIENCE.md)");
    cli.addFlag("max-point-failures", static_cast<std::int64_t>(-1),
                "failed points tolerated before the sweep is cancelled "
                "(-1 = unlimited)");
    cli.addFlag("deadline-sec", 3600.0,
                "per-point simulated-time deadline in seconds");
    cli.requirePositiveDouble("deadline-sec");
    cli.addFlag("journal", std::string(),
                "write an append-only per-point journal to this path");
    cli.addFlag("resume", std::string(),
                "load a prior run's journal and re-execute only its "
                "failed or missing points");
}

SweepResilience
resilienceFlags(const CliParser &cli)
{
    SweepResilience res;

    const std::string inject = cli.getString("inject");
    if (!inject.empty()) {
        auto spec = fault::parseFaultSpec(inject);
        if (!spec.isOk())
            mc_fatal("bad --inject: ", spec.status().toString());
        res.faults = spec.value();
    }

    const std::int64_t budget = cli.getInt("max-point-failures");
    if (budget >= 0)
        res.maxPointFailures = static_cast<std::size_t>(budget);

    // parse() already rejected non-positive values (addResilienceFlags
    // registers the constraint).
    res.deadlineSec = cli.getDouble("deadline-sec");

    const std::string journal = cli.getString("journal");
    const std::string resume = cli.getString("resume");
    if (!journal.empty() && !resume.empty())
        mc_fatal("--journal and --resume are mutually exclusive; "
                 "--resume appends to the journal it loads");
    res.journalPath = resume.empty() ? journal : resume;
    res.resume = !resume.empty();
    return res;
}

void
printSweepSummary(const std::string &bench_name, std::size_t total_points,
                  const std::vector<FailedPoint> &failed,
                  std::size_t skipped, std::size_t resumed)
{
    if (failed.empty() && skipped == 0 && resumed == 0)
        return;
    const std::size_t ok_points = total_points - failed.size() - skipped;
    std::fprintf(stderr,
                 "[%s] sweep summary: %zu/%zu points ok, %zu failed, "
                 "%zu skipped, %zu loaded from journal\n",
                 bench_name.c_str(), ok_points, total_points,
                 failed.size(), skipped, resumed);
    for (const FailedPoint &point : failed) {
        std::fprintf(stderr, "[%s]   point %zu (%s): %s\n",
                     bench_name.c_str(), point.index, point.key.c_str(),
                     point.status.toString().c_str());
    }
}

void
addJobsFlag(CliParser &cli)
{
    cli.addFlag("jobs", static_cast<std::int64_t>(1),
                "parallel sweep workers (1 = serial; output is "
                "identical for any value)");
    cli.requireIntAtLeast("jobs", 1);
}

int
jobsFlag(const CliParser &cli)
{
    return static_cast<int>(cli.getInt("jobs"));
}

void
addRepsFlag(CliParser &cli, std::int64_t default_reps)
{
    cli.addFlag("reps", default_reps, "measurement repetitions");
    cli.requireIntAtLeast("reps", 1);
}

void
addPlanCacheFlag(CliParser &cli)
{
    cli.addFlag("plan-cache-cap", static_cast<std::int64_t>(
                    blas::PlanCache::defaultCapacity()),
                "LRU bound of the GEMM plan cache (0 = unbounded)");
    cli.requireIntAtLeast("plan-cache-cap", 0);
}

void
applyPlanCacheFlag(const CliParser &cli)
{
    blas::PlanCache::setDefaultCapacity(
        static_cast<std::size_t>(cli.getInt("plan-cache-cap")));
}

void
addPackCacheFlag(CliParser &cli)
{
    cli.addFlag("pack-cache-mb",
                static_cast<std::int64_t>(
                    blas::PackCache::kDefaultCapacityBytes >> 20),
                "byte cap (MiB) of the packed-operand reuse cache "
                "(0 = disabled; MC_PACK_CACHE env overrides)");
    cli.requireIntAtLeast("pack-cache-mb", 0);
}

void
applyPackCacheFlag(const CliParser &cli)
{
    blas::PackCache::configureCapacityMb(
        static_cast<std::uint64_t>(cli.getInt("pack-cache-mb")));
}

void
addVerifyFlags(CliParser &cli, bool default_enabled)
{
    cli.addFlag("verify", default_enabled,
                "numerically verify sweep points on the host via the "
                "fast functional backend");
    cli.addFlag("verify-maxn", static_cast<std::int64_t>(2048),
                "verify only points with every dimension <= this "
                "(the check is O(n^3) host work)");
    cli.requireIntAtLeast("verify-maxn", 1);
    cli.addFlag("verify-scheme", std::string("paper"),
                "operand scheme: 'paper' (A=1, B=I, C=1) or 'random'");
    cli.addFlag("verify-threads", static_cast<std::int64_t>(0),
                "host threads for verification (0 = all hardware "
                "threads; values above the hardware thread count are "
                "capped; results are identical for every value)");
    cli.requireIntAtLeast("verify-threads", 0);
}

VerifyConfig
verifyFlags(const CliParser &cli)
{
    VerifyConfig config;
    config.enabled = cli.getBool("verify");
    // Verification fans out through exec::sharedPool from *inside*
    // sweep workers, so --jobs and --verify-threads used to multiply
    // into jobs x threads runnable host threads. Cap the library-
    // internal fan-out at the hardware concurrency instead: the sweep's
    // own workers (a private pool) keep the user's --jobs, while every
    // verification call shares at most one machine's worth of threads
    // (an explicit --verify-threads above that count is capped too).
    // Results are unaffected — the knobs trade scheduling only. Only
    // a verifying run gets the process-wide cap; parsing flags alone
    // must not change unrelated sharedPool/parallelChunks sizing.
    if (config.enabled)
        exec::setConcurrencyCap(exec::ThreadPool::hardwareThreads());
    config.maxN = static_cast<std::size_t>(cli.getInt("verify-maxn"));
    const std::string scheme = cli.getString("verify-scheme");
    if (scheme == "paper") {
        config.scheme = blas::VerifyScheme::PaperOnesIdentity;
    } else if (scheme == "random") {
        config.scheme = blas::VerifyScheme::Random;
    } else {
        mc_fatal("bad --verify-scheme '", scheme,
                 "': expected 'paper' or 'random'");
    }
    const std::int64_t threads = cli.getInt("verify-threads");
    config.func.threads = threads == 0 ? -1 : static_cast<int>(threads);
    return config;
}

void
addOutFlag(CliParser &cli)
{
    cli.addFlag("out", std::string(),
                "write results atomically to this file instead of "
                "stdout (temp + fsync + rename; never torn)");
}

BenchOutput::BenchOutput(const CliParser &cli)
{
    const std::string path = cli.getString("out");
    if (!path.empty())
        _writer.emplace(path);
}

std::ostream &
BenchOutput::stream()
{
    return _writer ? _writer->stream() : std::cout;
}

int
BenchOutput::finish(const std::string &bench_name, ErrorCode code)
{
    if (_writer) {
        const Status committed = _writer->commit();
        if (!committed.isOk()) {
            std::fprintf(stderr, "[%s] output commit failed: %s\n",
                         bench_name.c_str(),
                         committed.toString().c_str());
            if (code == ErrorCode::Ok)
                code = ErrorCode::DataLoss;
        }
    }
    return finishBench(bench_name, code);
}

int
finishBench(const std::string &bench_name, ErrorCode code)
{
    // With SIGPIPE ignored (CliParser::parse), a reader that closed
    // early leaves stdout in an error state instead of killing the
    // process with signal 13. A bench whose results never reached the
    // consumer did not complete — classify it Unavailable (retriable:
    // the next supervisor attempt gets a fresh pipe).
    std::fflush(stdout);
    if (code == ErrorCode::Ok &&
        (std::ferror(stdout) || !std::cout.good())) {
        code = ErrorCode::Unavailable;
    }
    const int exit_status = exitCodeFor(code);
    // To stderr: stdout carries only rendered results and must stay
    // byte-comparable across --jobs values and resume. The supervisor
    // detects the line by prefix substring, so the appended plan-cache
    // counters are invisible to it.
    const blas::PlanCacheStats plans = blas::PlanCache::globalStats();
    const blas::PackCacheStats packs = blas::PackCache::globalStats();
    // simd= names the tiers this process actually dispatched to (the
    // Auto resolution only when no GEMM ran), so a run that forced a
    // tier through FunctionalGemmOptions::simd is labelled truthfully.
    // tuned= is the active tuning artifact's fingerprint ("none" when
    // block sizes came from the built-in defaults), so sweep artifacts
    // are attributable to the block configuration that produced them.
    std::fprintf(stderr,
                 "%s%s code=%s exit=%d plan_hits=%llu plan_misses=%llu "
                 "plan_evictions=%llu pack_hits=%llu pack_misses=%llu "
                 "pack_bytes=%llu pack_evictions=%llu simd=%s tuned=%s\n",
                 exec::kBenchCompletionPrefix, bench_name.c_str(),
                 errorCodeName(code), exit_status,
                 static_cast<unsigned long long>(plans.hits),
                 static_cast<unsigned long long>(plans.misses),
                 static_cast<unsigned long long>(plans.evictions),
                 static_cast<unsigned long long>(packs.hits),
                 static_cast<unsigned long long>(packs.misses),
                 static_cast<unsigned long long>(packs.residentBytes),
                 static_cast<unsigned long long>(packs.evictions),
                 blas::usedSimdTierLabel().c_str(),
                 blas::activeTuningLabel().c_str());
    return exit_status;
}

} // namespace bench
} // namespace mc
