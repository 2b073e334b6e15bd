// paper_sweep: the fig6 + fig7 grid, measured on the simulated device
// and host-verified, point by point, the way bench/fig6_gemm_fp.cc and
// bench/fig7_gemm_mixed.cc run it.
//
// The sweep runs in a child process of the benchmark, so its start-up
// time and peak RSS are those of a process that does only the sweep.

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>

#include <sys/wait.h>
#include <unistd.h>

#include "arch/calibration.hh"
#include "bench/common/bench_util.hh"
#include "blas/gemm.hh"
#include "blas/pack_cache.hh"
#include "common/hash.hh"
#include "exec/sweep_runner.hh"
#include "exec/thread_pool.hh"
#include "hip/runtime.hh"
#include "layers.hh"
#include "loadgen.hh"
#include "stats.hh"
#include "trace.hh"
#include "workloads.hh"

namespace perfbench {

using namespace mc;

namespace {

/** Simulated-noise seeds are fixed, like fig6's: the simulated results,
 *  and so the sweep digest, do not depend on the benchmark seed. Only
 *  the verification operands do. */
constexpr const char *kNoiseSeedName = "paper_sweep";

struct PointOut
{
    std::string combo;
    std::size_t n = 0;
    bool aborted = false;
    bool verified = false;
    bool failed = false;
    double tflops = 0.0;
    int macroTile = 0;
    bool matrixCores = false;
    double hostMs = 0.0;
    VerifySplit split;
    double verifyMs = 0.0;
};

struct SweepTotals
{
    std::vector<PointOut> points;
    double wallSec = 0.0;
    double simMs = 0.0;
    double simSeconds = 0.0; ///< simulated kernel seconds
    std::uint64_t simCalls = 0;
    std::uint64_t planHits = 0, planMisses = 0;
    std::string digest;
    blas::FunctionalGemmOptions func;
};

SweepTotals
runSweepOnce(const JsonValue &cfg, std::uint64_t seed, Tracer &tracer)
{
    const auto max_n = static_cast<std::size_t>(cfg.at("max_n").asInt());
    const auto verify_max_n =
        static_cast<std::size_t>(cfg.at("verify_max_n").asInt());
    const int reps = static_cast<int>(cfg.at("reps").asInt());
    blas::FunctionalGemmOptions func;
    func.threads = static_cast<int>(cfg.at("verify_threads").asInt());

    SweepTotals totals;
    totals.func = func;
    std::uint64_t digest = kHashBasis;
    const double t_start = nowUs();
    Tracer::Scope root(tracer, "paper_sweep", "bench");
    const JsonValue &combos = cfg.at("combos");
    for (std::size_t c = 0; c < combos.size(); ++c) {
        const std::string name = combos.at(c).asString();
        const blas::GemmCombo combo = blas::parseCombo(name);
        for (std::size_t n = static_cast<std::size_t>(cfg.at("min_n").asInt());
             n <= max_n; n *= 2) {
            const std::string key = name + "/" + std::to_string(n);
            PointOut pt;
            pt.combo = name;
            pt.n = n;
            const double p0 = nowUs();
            Tracer::Scope point(tracer, key, "bench");

            int rt_span = tracer.begin("hip::Runtime", "sim");
            hip::Runtime rt(arch::defaultCdna2());
            blas::GemmEngine engine(rt);
            tracer.end(rt_span);

            blas::GemmConfig gcfg;
            gcfg.combo = combo;
            gcfg.m = gcfg.n = gcfg.k = n;
            gcfg.alpha = gcfg.beta = 0.1;
            bench::ResilientOptions ropts;
            ropts.repetitions = reps;
            auto measured = bench::repeatMeasureResilient(
                [&](int rep) -> Result<bench::TimedSample> {
                    rt.gpu().reseedNoise(exec::deriveSeed(
                        kNoiseSeedName, key, static_cast<std::uint64_t>(rep)));
                    const double s0 = nowUs();
                    Result<blas::GemmResult> result = [&] {
                        Tracer::Scope run(tracer, "GemmEngine::run", "sim");
                        return engine.run(gcfg);
                    }();
                    totals.simMs += (nowUs() - s0) * 1e-3;
                    ++totals.simCalls;
                    if (!result.isOk())
                        return result.status();
                    totals.simSeconds += result.value().kernel.seconds;
                    pt.macroTile = result.value().macroTile;
                    pt.matrixCores = result.value().usedMatrixCores;
                    return bench::TimedSample{result.value().throughput(),
                                              result.value().kernel.seconds};
                },
                ropts);
            totals.planHits += engine.planCache().hits();
            totals.planMisses += engine.planCache().misses();
            if (!measured.isOk()) {
                pt.failed = true;
            } else {
                pt.aborted = measured.value().aborted;
                pt.tflops = measured.value().value() / 1e12;
            }
            if (!pt.failed && !pt.aborted && n <= verify_max_n) {
                engine.functionalOptions() = func;
                const double v0 = nowUs();
                blas::VerifyResult v;
                {
                    Tracer::Scope span(tracer, "GemmEngine::verify", "blas");
                    v = engine.verify(gcfg, blas::VerifyScheme::Random,
                                      deriveSeed(seed, hashString(key)));
                }
                pt.verifyMs = (nowUs() - v0) * 1e-3;
                pt.verified = v.passed;
                pt.failed = !v.passed;
            }
            pt.hostMs = (nowUs() - p0) * 1e-3;

            char line[160];
            std::snprintf(line, sizeof(line), "%s/%zu:%d:%.17g:%d:%d;",
                          name.c_str(), n, pt.aborted ? 1 : 0,
                          pt.aborted ? 0.0 : pt.tflops, pt.macroTile,
                          pt.matrixCores ? 1 : 0);
            digest = hashString(line, digest);
            const bool stop = pt.aborted || pt.failed;
            totals.points.push_back(pt);
            if (stop)
                break; // the paper's sweep ends at device-memory exhaustion
        }
    }
    totals.wallSec = (nowUs() - t_start) * 1e-6;
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016" PRIx64, digest);
    totals.digest = hex;
    return totals;
}

/** Fork/exec @p argv with stdout on a pipe. Returns the microseconds
 *  until the child's first output line and the full output. */
struct ChildOutput
{
    bool ok = false;
    double firstLineSec = 0.0;
    std::string output;
};

ChildOutput
runChild(const std::vector<std::string> &argv_s)
{
    ChildOutput out;
    int fds[2];
    if (::pipe(fds) != 0)
        return out;
    std::vector<char *> argv;
    std::vector<std::string> copy = argv_s;
    for (auto &a : copy)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    const double t0 = nowUs();
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        return out;
    }
    if (pid == 0) {
        ::dup2(fds[1], 1);
        ::close(fds[0]);
        ::close(fds[1]);
        ::execv(argv[0], argv.data());
        ::_exit(127);
    }
    ::close(fds[1]);
    char buf[65536];
    for (;;) {
        const ssize_t got = ::read(fds[0], buf, sizeof(buf));
        if (got < 0 && errno == EINTR)
            continue;
        if (got <= 0)
            break;
        const bool had_line = out.output.find('\n') != std::string::npos;
        out.output.append(buf, static_cast<std::size_t>(got));
        if (!had_line && out.output.find('\n') != std::string::npos)
            out.firstLineSec = (nowUs() - t0) * 1e-6;
    }
    ::close(fds[0]);
    int status = 0;
    ::waitpid(pid, &status, 0);
    out.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    return out;
}

std::vector<std::string>
childArgv(const RunArgs &args, bool trace, bool ready_only)
{
    std::vector<std::string> argv = {
        args.self, "--child", ready_only ? "ready" : "sweep",
        "--workload", "paper_sweep", "--seed", std::to_string(args.seed),
        "--seconds", std::to_string(args.seconds), "--trace",
        trace ? "1" : "0", "--config", args.configPath,
        "--work-dir", args.workDir};
    if (trace)
        argv.insert(argv.end(), {"--trace-out", args.traceOut});
    return argv;
}

/** The JSON document on the last line of a sweep child's output. */
Result<JsonValue>
childDocument(const ChildOutput &child)
{
    if (!child.ok)
        return Status(ErrorCode::Internal, "sweep child failed");
    std::string text = child.output;
    while (!text.empty() && text.back() == '\n')
        text.pop_back();
    const auto nl = text.rfind('\n');
    return JsonValue::parse(nl == std::string::npos ? text
                                                    : text.substr(nl + 1));
}

} // namespace

int
sweepChildMain(const RunArgs &args, bool ready_only)
{
    // Set-up a sweep process does before its first point, as the
    // bench harnesses do it.
    exec::setConcurrencyCap(exec::ThreadPool::hardwareThreads());
    (void)arch::defaultCdna2();
    std::printf("ready\n");
    std::fflush(stdout);
    if (ready_only)
        return 0;

    Tracer tracer(args.trace);
    SweepTotals run = runSweepOnce(args.config, args.seed, tracer);
    // A figure series (a combo from N = 16 to its OOM cut) is the sweep's
    // unit of result; its latency is the host time of its points.
    std::map<std::string, double> series;
    std::int64_t failed = 0;
    for (const PointOut &p : run.points) {
        series[p.combo] += p.hostMs;
        failed += p.failed ? 1 : 0;
    }
    // A traced run splits verify time by re-timing each verified shape
    // through the public entry points, after (outside) the timed sweep.
    if (args.trace) {
        for (PointOut &p : run.points) {
            if (!p.verified)
                continue;
            blas::GemmConfig gcfg;
            gcfg.combo = blas::parseCombo(p.combo);
            gcfg.m = gcfg.n = gcfg.k = p.n;
            gcfg.alpha = gcfg.beta = 0.1;
            p.split = retimeVerify(gcfg, run.func);
        }
    }

    JsonValue doc = JsonValue::object();
    doc.set("wall_s", run.wallSec);
    doc.set("digest", run.digest);
    doc.set("attempted", static_cast<std::int64_t>(run.points.size()));
    doc.set("failed", failed);
    JsonValue series_doc = JsonValue::object();
    for (const auto &[combo, ms] : series)
        series_doc.set(combo, ms);
    doc.set("series_ms", series_doc);
    JsonValue points = JsonValue::array();
    double verify_ms = 0, gemm_ms = 0, ref_ms = 0;
    for (const PointOut &p : run.points) {
        JsonValue pj = JsonValue::object();
        pj.set("combo", p.combo);
        pj.set("n", static_cast<std::int64_t>(p.n));
        pj.set("aborted", p.aborted);
        pj.set("failed", p.failed);
        pj.set("verified", p.verified);
        pj.set("tflops", p.tflops);
        pj.set("host_ms", p.hostMs);
        pj.set("verify_ms", p.verifyMs);
        points.append(pj);
        verify_ms += p.verifyMs;
        gemm_ms += p.split.gemmMs;
        ref_ms += p.split.refMs;
    }
    doc.set("points", points);
    doc.set("verify_ms", verify_ms);
    doc.set("gemm_ms", gemm_ms);
    doc.set("ref_ms", ref_ms);
    doc.set("sim_ms", run.simMs);
    doc.set("sim_calls", static_cast<std::int64_t>(run.simCalls));
    doc.set("sim_seconds", run.simSeconds);
    doc.set("plan_hits", static_cast<std::int64_t>(run.planHits));
    doc.set("plan_misses", static_cast<std::int64_t>(run.planMisses));
    const blas::PackCacheStats packs = blas::PackCache::globalStats();
    doc.set("pack_hits", static_cast<std::int64_t>(packs.hits));
    doc.set("pack_misses", static_cast<std::int64_t>(packs.misses));
    doc.set("pack_evictions", static_cast<std::int64_t>(packs.evictions));
    doc.set("pack_bytes", static_cast<std::int64_t>(packs.residentBytes));
    doc.set("rss_peak_mb", vmHwmMb(::getpid()));

    if (args.trace) {
        const std::vector<Span> spans = tracer.spans();
        JsonValue self = JsonValue::object();
        for (const auto &[layer, us] : selfTimeByLayer(spans))
            self.set(layer, us * 1e-3);
        doc.set("self_ms", self);
        doc.set("spans", static_cast<std::int64_t>(spans.size()));
        std::ofstream(args.traceOut) << chromeTraceJson(spans);
    }
    std::printf("%s\n", doc.serialize(0).c_str());
    return 0;
}

RunResult
runPaperSweep(const RunArgs &args)
{
    RunResult result;
    const JsonValue &cfg = args.config;

    std::vector<double> setups;
    for (int i = 0; i < kSetupLaunches; ++i) {
        const ChildOutput ready = runChild(childArgv(args, false, true));
        if (!ready.ok) {
            result.fail("sweep child did not start");
            return result;
        }
        setups.push_back(ready.firstLineSec);
    }

    // A sweep takes most of the run, so it is not repeated: one disturbed
    // by other guests on the host is reported, marked invalid.
    const CpuTimes c0 = cpuTimes();
    const ChildOutput main_run = runChild(childArgv(args, false, false));
    const double steal = stealShare(c0, cpuTimes());
    auto parsed = childDocument(main_run);
    if (!parsed.isOk()) {
        result.fail(parsed.status().toString());
        return result;
    }
    const JsonValue &d = parsed.value();
    const bool valid = steal <= kMaxStealShare;
    result.details.set("steal_share", steal);
    result.details.set("valid", valid);
    if (!valid)
        std::fprintf(stderr, "mcbench: the sweep was disturbed by host steal; "
                             "marked invalid\n");

    std::vector<double> series_ms;
    for (const auto &[combo, ms] : d.at("series_ms").members())
        series_ms.push_back(ms.asNumber());
    const auto failed = static_cast<std::uint64_t>(d.at("failed").asInt());
    result.attempted = static_cast<std::uint64_t>(d.at("attempted").asInt());
    result.failed = failed;
    if (failed > 0)
        result.fail(std::to_string(failed) + " sweep points failed verification");
    const std::string expected = cfg.at("sim_digest").asString();
    if (d.at("digest").asString() != expected)
        result.fail("simulated-statistics digest " + d.at("digest").asString() +
                    " != recorded " + expected);
    result.details.set("digest", d.at("digest"));
    // Five series leave no percentile with 10 samples beyond it: the
    // tail is then the slowest series (p100).
    const double tail_p = tailPercentile(series_ms.size()) > 0
                              ? tailPercentile(series_ms.size())
                              : 100.0;
    result.details.set("lat_tail_percentile", tail_p);
    result.details.set("lat_samples", static_cast<std::int64_t>(series_ms.size()));

    const double wall = d.at("wall_s").asNumber();
    result.add("setup_s", "s", median(setups));
    JsonValue setup_ms = JsonValue::array();
    for (double sec : setups)
        setup_ms.append(sec * 1e3);
    result.details.set("setup_ms", setup_ms);
    result.add("wall_s", "s", wall);
    result.add("lat_p50_ms", "ms", percentile(series_ms, 50));
    result.add("lat_tail_ms", "ms", percentile(series_ms, tail_p));
    result.add("max_rps_slo", "1/s",
               static_cast<double>(d.at("points").size()) / wall);
    result.add("ok_share", "share",
               static_cast<double>(result.attempted - failed) /
                   static_cast<double>(result.attempted));
    result.add("rss_peak_mb", "MiB", d.at("rss_peak_mb").asNumber());
    if (!args.trace)
        return result;

    // Traced run: the untraced sweep above is the baseline of the
    // tracing overhead; the traced child also re-times the verify split.
    const ChildOutput traced_run = runChild(childArgv(args, true, false));
    auto tdoc = childDocument(traced_run);
    if (!tdoc.isOk()) {
        result.fail(tdoc.status().toString());
        return result;
    }
    const JsonValue &t = tdoc.value();
    const double twall = t.at("wall_s").asNumber() * 1e3;
    // Time the layers account for: every layer's self time except the
    // benchmark's own loop ("bench").
    double accounted = 0.0;
    const JsonValue &self = t.at("self_ms");
    for (const auto &[layer, ms] : self.members())
        if (layer != "bench")
            accounted += ms.asNumber();
    auto self_of = [&](const char *layer) {
        const JsonValue *v = self.find(layer);
        return v ? v->asNumber() : 0.0;
    };
    const double sim_calls = t.at("sim_calls").asNumber();
    const double verify = t.at("verify_ms").asNumber();
    result.add("sim.run_ms", "ms", self_of("sim"));
    result.add("sim.calls", "count", sim_calls);
    result.add("sim.sim_s_per_host_s", "s/s",
               t.at("sim_seconds").asNumber() / (t.at("sim_ms").asNumber() * 1e-3));
    result.add("sim.plan_hit_ratio", "share",
               t.at("plan_hits").asNumber() /
                   (t.at("plan_hits").asNumber() + t.at("plan_misses").asNumber()));
    result.add("blas.verify_ms", "ms", verify);
    result.add("blas.verify_share", "share", verify / twall);
    result.add("blas.gemm_ms", "ms", t.at("gemm_ms").asNumber());
    result.add("blas.ref_ms", "ms", t.at("ref_ms").asNumber());
    result.add("blas.verify_other_ms", "ms",
               verify - t.at("gemm_ms").asNumber() - t.at("ref_ms").asNumber());
    const double lookups = t.at("pack_hits").asNumber() + t.at("pack_misses").asNumber();
    result.add("blas.pack_hit_ratio", "share",
               lookups > 0 ? t.at("pack_hits").asNumber() / lookups : 0.0);
    result.add("blas.pack_evictions", "count", t.at("pack_evictions").asNumber());
    result.add("blas.pack_bytes", "bytes", t.at("pack_bytes").asNumber());
    result.add("lat.tail_percentile", "pct", tail_p);
    result.add("lat.samples", "count", static_cast<double>(series_ms.size()));
    result.add("trace.overhead_pct", "%", 100.0 * (twall * 1e-3 - wall) / wall);
    result.add("trace.accounted_pct", "%", 100.0 * accounted / twall);
    result.add("trace.bench_self_ms", "ms", self_of("bench"));
    if (std::fabs(accounted - twall) > 0.05 * twall)
        result.fail("layer self times do not account for the traced wall");
    if (t.at("digest").asString() != expected)
        result.fail("traced sweep digest differs from the recorded one");
    return result;
}

} // namespace perfbench
