// serve_small: the shipped mc_serve daemon under an open-loop doubling
// ladder of request rates.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <set>

#include "blas/gemm.hh"
#include "blas/plan_cache.hh"
#include "common/hash.hh"
#include "exec/sweep_runner.hh"
#include "exec/thread_pool.hh"
#include "arch/calibration.hh"
#include "hip/runtime.hh"
#include "layers.hh"
#include "loadgen.hh"
#include "mixes.hh"
#include "serve/engine.hh"
#include "serve/protocol.hh"
#include "serve/worker.hh"
#include "stats.hh"
#include "trace.hh"
#include "workloads.hh"

namespace perfbench {

using namespace mc;

namespace {

struct RungStats
{
    std::size_t sent = 0, failed = 0;
    double rate = 0.0;        ///< configured rate
    double offered = 0.0;     ///< measured send rate of the schedule
    double p50 = 0.0, tail = 0.0, tailP = 0.0;
    double sloTail = 0.0;     ///< tail with failures counted as infinite
    double lateP50 = 0.0, lateP99 = 0.0; ///< generator lateness, ms
    double drainMs = 0.0;     ///< last response after the last send
    double busySec = 0.0;     ///< rung start to its last response
    double firstHalfMs = 0.0, secondHalfMs = 0.0; ///< median latency
    bool backlog = false, pass = false;
    bool valid = false;       ///< the generator's p99 lateness is in bounds
    std::vector<double> lat;  ///< ms, Ok responses
};

double
asDouble(const JsonValue &cfg, const char *key)
{
    return cfg.at(key).asNumber();
}

std::vector<RungStats>
analyze(const std::vector<Request> &reqs, const std::vector<Outcome> &out,
        const Ladder &ladder, double limit_ms, double lag_ms)
{
    const std::vector<double> &rates = ladder.rates;
    std::vector<RungStats> rungs(rates.size());
    std::vector<double> rung_start(rates.size(), 0), last_sent(rates.size(), 0);
    const double t0 = out.empty() ? 0.0 : out.front().scheduledUs - reqs.front().sendAt * 1e6;
    double start = 0.0;
    for (std::size_t k = 0; k < rates.size(); ++k) {
        rung_start[k] = t0 + start * 1e6;
        start += ladder.seconds[k] + ladder.gapSeconds;
    }
    std::vector<double> last(rates.size(), 0), last_done(rates.size(), 0);
    std::vector<double> last_reply(rates.size(), 0);
    std::vector<std::vector<double>> late(rates.size()), all(rates.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        RungStats &r = rungs[reqs[i].rung];
        const std::size_t k = reqs[i].rung;
        last[k] = std::max(last[k], out[i].scheduledUs);
        ++r.sent;
        late[k].push_back((out[i].sentUs - out[i].scheduledUs) * 1e-3);
        last_sent[k] = std::max(last_sent[k], out[i].sentUs);
        last_reply[k] = std::max(last_reply[k], out[i].doneUs);
        const bool ok = out[i].doneUs > 0 && !responsePayload(out[i].response).empty();
        if (!ok) {
            // A failed request counts as missing any latency limit.
            ++r.failed;
            all[k].push_back(HUGE_VAL);
            continue;
        }
        last_done[k] = std::max(last_done[k], out[i].doneUs);
        const double ms = (out[i].doneUs - out[i].scheduledUs) * 1e-3;
        r.lat.push_back(ms); // requests are indexed in send order
        all[k].push_back(ms);
    }
    for (std::size_t k = 0; k < rungs.size(); ++k) {
        RungStats &r = rungs[k];
        r.rate = rates[k];
        // The rate the generator actually offered: the rung's requests
        // over the span from the rung's start to its last send.
        r.offered = r.sent > 0 ? static_cast<double>(r.sent) /
                                     ((last_sent[k] - rung_start[k]) * 1e-6)
                               : 0.0;
        r.tailP = tailPercentile(all[k].size());
        r.p50 = percentile(r.lat, 50);
        r.tail = percentile(r.lat, r.tailP > 0 ? r.tailP : 100);
        r.sloTail = percentile(all[k], r.tailP > 0 ? r.tailP : 100);
        r.lateP50 = percentile(late[k], 50);
        r.lateP99 = percentile(late[k], 99);
        r.drainMs = (last_done[k] - last[k]) * 1e-3;
        r.busySec = (std::max(last_reply[k], last_sent[k]) - rung_start[k]) * 1e-6;
        // A growing backlog shows as latency that rises through the
        // rung: the later half waits twice as long as the earlier one,
        // and long enough to matter against the limit.
        const auto half = static_cast<std::ptrdiff_t>(r.lat.size() / 2);
        r.firstHalfMs = median(std::vector<double>(r.lat.begin(),
                                                   r.lat.begin() + half));
        r.secondHalfMs = median(std::vector<double>(r.lat.begin() + half,
                                                    r.lat.end()));
        r.backlog = r.secondHalfMs > 2.0 * r.firstHalfMs &&
                    r.secondHalfMs > 0.5 * limit_ms;
        r.pass = r.sloTail <= limit_ms && !r.backlog;
        r.valid = r.lateP99 <= lag_ms;
    }
    return rungs;
}

/**
 * The highest offered rate whose tail meets @p limit_ms: the last rung
 * of the passing prefix, moved toward the next rung by where the limit
 * falls between their tails (log-log interpolation). A next rung that
 * failed for another reason (a backlog, or failures beyond the tail)
 * ends the search at the passing rung. 0 when even the first rung fails.
 */
double
maxRateWithinLimit(const std::vector<RungStats> &rs, double limit_ms)
{
    std::size_t passed = 0;
    while (passed < rs.size() && rs[passed].pass)
        ++passed;
    if (passed == 0)
        return 0.0;
    const RungStats &lo = rs[passed - 1];
    if (passed == rs.size())
        return lo.offered;
    const RungStats &hi = rs[passed];
    if (!std::isfinite(hi.sloTail) || hi.sloTail <= limit_ms || lo.sloTail <= 0.0)
        return lo.offered;
    const double t = std::clamp(std::log(limit_ms / lo.sloTail) /
                                    std::log(hi.sloTail / lo.sloTail),
                                0.0, 1.0);
    return lo.offered * std::pow(hi.offered / lo.offered, t);
}

/** The generator kept to its schedule on every rung that decides the
 *  result: the nominal rung, and each rung up to the first failing one. */
bool
generatorKeptUp(const std::vector<RungStats> &rs, std::size_t nominal)
{
    if (!rs.at(nominal).valid)
        return false;
    for (const RungStats &r : rs) {
        if (!r.valid)
            return false;
        if (!r.pass)
            break;
    }
    return true;
}

/** A seeded sample of @p count request indices, for in-process probes. */
std::vector<std::size_t>
probeSample(std::size_t requests, std::size_t count, std::uint64_t seed)
{
    Rng rng(deriveSeed(seed, 7));
    std::set<std::size_t> picked;
    while (picked.size() < std::min(count, requests))
        picked.insert(rng.below(requests));
    return {picked.begin(), picked.end()};
}

serve::ServeRequest
parsed(const Request &q)
{
    auto r = serve::parseRequest(q.frame("probe"));
    mc_assert(r.isOk(), "benchmark request does not parse");
    return r.value();
}

double
timeMs(const std::function<void()> &fn)
{
    const double t0 = nowUs();
    fn();
    return (nowUs() - t0) * 1e-3;
}

/** Host cost of one recorded span (begin + end), microseconds. */
double
spanCostUs()
{
    Tracer scratch(true);
    const int n = 20000;
    const double t0 = nowUs();
    for (int i = 0; i < n; ++i)
        scratch.end(scratch.begin("probe", "trace"));
    return (nowUs() - t0) / n;
}

std::string
hex64(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

/** The ladder of @p cfg for a run of @p seconds: each rung gets its
 *  configured share of the schedule, so its sample count, and with it
 *  the tail percentile reported for it, is the same for every seed. */
Ladder
ladderFor(const JsonValue &cfg, double seconds)
{
    Ladder ladder;
    const JsonValue &rates = cfg.at("rates");
    const JsonValue &weights = cfg.at("rung_weights");
    double total_weight = 0.0;
    for (std::size_t i = 0; i < rates.size(); ++i) {
        ladder.rates.push_back(rates.at(i).asNumber());
        total_weight += weights.at(i).asNumber();
    }
    ladder.gapSeconds = asDouble(cfg, "gap_s");
    const double schedule =
        asDouble(cfg, "schedule_share") * seconds -
        ladder.gapSeconds * static_cast<double>(rates.size() - 1);
    for (std::size_t i = 0; i < rates.size(); ++i)
        ladder.seconds.push_back(schedule * weights.at(i).asNumber() / total_weight);
    return ladder;
}

} // namespace

RunResult
runServeWorkload(const RunArgs &args)
{
    RunResult result;
    const JsonValue &cfg = args.config;
    const Ladder ladder = ladderFor(cfg, args.seconds);
    const std::vector<Request> reqs =
        serveSmallMix(args.seed, ladder, asDouble(cfg, "inject_share"),
                      cfg.at("inject").asString());
    const auto nominal = static_cast<std::size_t>(cfg.at("nominal_rung").asInt());
    const double limit_ms = asDouble(cfg, "tail_limit_ms");

    std::vector<std::string> daemon_args;
    const JsonValue &dargs = cfg.at("daemon_args");
    for (std::size_t i = 0; i < dargs.size(); ++i)
        daemon_args.push_back(dargs.at(i).asString());

    // ---- the measured ladder, on a fresh daemon per attempt ----
    // An attempt is valid when the generator kept to its schedule on the
    // rungs that decide the result and other guests on the host took at
    // most a small share of its CPU time. An invalid attempt is measured again (a
    // bounded number of times); the least disturbed one is reported.
    struct Attempt
    {
        std::vector<Outcome> out;
        JsonValue stats;
        double rss = 0.0, steal = 0.0;
        std::vector<RungStats> rs;
        bool valid = false;
    };
    std::optional<Attempt> best;
    std::vector<double> setups;
    const auto max_attempts = cfg.at("max_attempts").asInt();
    std::int64_t attempts = 0;
    while (attempts < max_attempts && !(best && best->valid)) {
        // Set-up time: the first attempt spawns the daemon several times
        // and keeps the last.
        const int spawns = attempts == 0 ? kSetupLaunches : 1;
        ++attempts;
        Daemon daemon;
        for (int i = 0; i < spawns; ++i) {
            auto spawned = spawnDaemon(args.mcServe, daemon_args, args.workDir,
                                       static_cast<int>(setups.size()));
            if (!spawned.isOk()) {
                result.fail(spawned.status().toString());
                return result;
            }
            setups.push_back(spawned.value().setupSec);
            if (i + 1 < spawns)
                stopDaemon(spawned.value());
            else
                daemon = spawned.value();
        }
        const CpuTimes c0 = cpuTimes();
        auto ran = runOpenLoop(daemon, reqs, 0.2);
        const double steal = stealShare(c0, cpuTimes());
        Result<JsonValue> stats = daemonStats(daemon);
        const double rss = vmHwmMb(daemon.pid);
        stopDaemon(daemon);
        if (!ran.isOk() || !stats.isOk()) {
            result.fail(!ran.isOk() ? ran.status().toString()
                                    : stats.status().toString());
            return result;
        }
        Attempt a;
        a.out = std::move(ran.value());
        a.stats = stats.value();
        a.rss = rss;
        a.steal = steal;
        a.rs = analyze(reqs, a.out, ladder, limit_ms, asDouble(cfg, "lag_limit_ms"));
        a.valid = generatorKeptUp(a.rs, nominal) &&
                  steal <= kMaxStealShare;
        if (!best || (a.valid && !best->valid) ||
            (a.valid == best->valid && a.steal < best->steal))
            best = std::move(a);
    }
    const std::vector<Outcome> &out = best->out;
    const std::vector<RungStats> &rs = best->rs;
    const double rss = best->rss;
    result.details.set("attempts", attempts);
    result.details.set("steal_share", best->steal);
    result.details.set("valid", best->valid);
    if (!best->valid)
        std::fprintf(stderr, "mcbench: every attempt was disturbed (generator "
                             "lag or host steal); reporting the least disturbed, "
                             "marked invalid\n");

    result.attempted = reqs.size();
    for (const RungStats &r : rs)
        result.failed += r.failed;

    // ---- correctness: the byte-identity contract ----
    // Every answer must equal, byte for byte, the response executePayload
    // computes in-process for the same request document, whatever rate
    // it was served at. Those in-process runs also time each request's
    // service without any queueing.
    std::vector<std::string> payloads(reqs.size());
    std::uint64_t digest = kHashBasis;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        payloads[i] = responsePayload(out[i].response);
        digest = hashString(payloads[i], digest);
    }
    exec::setConcurrencyCap(exec::ThreadPool::hardwareThreads());
    auto plans = std::make_shared<blas::PlanCache>();
    serve::EngineOptions off;
    off.planCache = plans;
    std::size_t mismatched = 0;
    std::vector<double> service_ms(reqs.size(), -1.0);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        if (payloads[i].empty())
            continue;
        const serve::ServeRequest sr = parsed(reqs[i]);
        std::optional<Result<JsonValue>> ref;
        service_ms[i] = timeMs([&] { ref.emplace(serve::executePayload(sr, off)); });
        if (!ref->isOk() ||
            serve::okResponse("r" + std::to_string(i), ref->value()) !=
                out[i].response)
            ++mismatched;
    }
    if (mismatched > 0)
        result.fail(std::to_string(mismatched) +
                    " responses broke the byte-identity contract");

    // ---- end-to-end metrics ----
    const RungStats &nom = rs.at(nominal);
    const double max_rps = maxRateWithinLimit(rs, limit_ms);
    const double t_first = out.front().scheduledUs;
    double t_last = 0.0;
    for (const Outcome &o : out)
        t_last = std::max(t_last, std::max(o.doneUs, o.sentUs));
    // The schedule sets the length of the ladder; the daemon's speed sets
    // how long it takes to clear the top rung, which offers more than the
    // daemon can serve: a fixed batch of requests, so that time is the
    // batch over the daemon's capacity.
    const RungStats &top = rs.back();

    JsonValue ladder_doc = JsonValue::array();
    for (const RungStats &r : rs) {
        JsonValue j = JsonValue::object();
        j.set("rate", r.rate);
        j.set("offered", r.offered);
        j.set("sent", static_cast<std::int64_t>(r.sent));
        j.set("failed", static_cast<std::int64_t>(r.failed));
        j.set("p50_ms", r.p50);
        j.set("tail_percentile", r.tailP);
        j.set("tail_ms", r.tail);
        j.set("late_p50_ms", r.lateP50);
        j.set("late_p99_ms", r.lateP99);
        j.set("drain_ms", r.drainMs);
        j.set("busy_s", r.busySec);
        j.set("first_half_p50_ms", r.firstHalfMs);
        j.set("second_half_p50_ms", r.secondHalfMs);
        j.set("backlog", r.backlog);
        j.set("pass", r.pass);
        j.set("valid", r.valid);
        ladder_doc.append(j);
    }
    result.details.set("ladder", ladder_doc);
    JsonValue failures = JsonValue::array();
    for (std::size_t i = 0; i < reqs.size() && failures.size() < 20; ++i) {
        if (!payloads[i].empty())
            continue;
        JsonValue f = JsonValue::object();
        f.set("request", reqs[i].frame("r" + std::to_string(i)));
        f.set("response", out[i].response);
        f.set("latency_ms", out[i].doneUs > 0
                                ? (out[i].doneUs - out[i].scheduledUs) * 1e-3
                                : -1.0);
        failures.append(f);
    }
    result.details.set("failures", failures);
    result.details.set("payload_digest", hex64(digest));
    result.details.set("lat_tail_percentile", nom.tailP);
    result.details.set("lat_samples", static_cast<std::int64_t>(nom.lat.size()));
    result.details.set("daemon_stats", best->stats);
    result.details.set("ladder_s", (t_last - t_first) * 1e-6);
    // Below capacity the top rung's time is its schedule, not the daemon's.
    result.details.set("top_rung_saturated", top.backlog);

    result.add("setup_s", "s", median(setups));
    JsonValue setup_ms = JsonValue::array();
    for (double sec : setups)
        setup_ms.append(sec * 1e3);
    result.details.set("setup_ms", setup_ms);
    result.add("wall_s", "s", top.busySec);
    result.add("lat_p50_ms", "ms", nom.p50);
    result.add("lat_tail_ms", "ms", nom.tail);
    result.add("max_rps_slo", "1/s", max_rps);
    result.add("ok_share", "share",
               static_cast<double>(result.attempted - result.failed) /
                   static_cast<double>(result.attempted));
    result.add("rss_peak_mb", "MiB", rss);
    if (!args.trace)
        return result;

    // ---- traced run: a span per request, then the layer probes ----
    // Client-side spans are recorded after the ladder, from the times
    // the generator took anyway, so they cost the measured run nothing.
    Tracer tracer(true);
    {
        const int root = tracer.record("ladder", "bench", t_first, t_last, 0);
        std::vector<double> lo(rs.size(), 1e300), hi(rs.size(), 0);
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            const std::size_t k = reqs[i].rung;
            lo[k] = std::min(lo[k], out[i].scheduledUs);
            hi[k] = std::max(hi[k], std::max(out[i].doneUs, out[i].sentUs));
        }
        std::vector<int> rung_span;
        for (std::size_t k = 0; k < rs.size(); ++k)
            rung_span.push_back(tracer.record("rung " + std::to_string(k),
                                              "bench", lo[k], hi[k], 0, root));
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            const Outcome &o = out[i];
            const int req = tracer.record(
                "request", "serve", o.scheduledUs,
                o.doneUs > 0 ? o.doneUs : o.sentUs, i + 1,
                rung_span[reqs[i].rung]);
            tracer.record("send", "loadgen", o.scheduledUs, o.sentUs, i + 1, req);
        }
    }

    // Protocol steps over this workload's own frames and responses.
    std::vector<std::string> frames, responses;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        frames.push_back(reqs[i].frame("r" + std::to_string(i)));
        if (!payloads[i].empty())
            responses.push_back(out[i].response);
    }
    const ProtocolTimes pt = protocolTimes(frames, responses);

    // In-process service of a sample of the workload's requests: the
    // engine with and without verification, the simulator alone, and
    // the same request in a supervised worker process.
    serve::EngineOptions on = off;
    on.verifyGemms = true;
    on.verifyMaxN = static_cast<std::size_t>(cfg.at("verify_max_n").asInt());
    const std::vector<std::size_t> sample = probeSample(
        reqs.size(), static_cast<std::size_t>(cfg.at("probe_requests").asInt()),
        args.seed);
    double engine_ms = 0, verify_ms = 0, sim_ms = 0, sim_s = 0, worker_ms = 0;
    int worker_probes = 0;
    for (std::size_t index : sample) {
        const Request &q = reqs[index];
        const serve::ServeRequest sr = parsed(q);
        const double t_off = timeMs([&] { (void)serve::executePayload(sr, off); });
        const double t_on = timeMs([&] { (void)serve::executePayload(sr, on); });
        engine_ms += t_off;
        verify_ms += std::max(0.0, t_on - t_off);
        {
            hip::Runtime rt(arch::defaultCdna2());
            blas::GemmEngine engine(rt);
            engine.usePlanCache(plans);
            blas::GemmConfig gcfg;
            gcfg.combo = q.combo;
            gcfg.m = q.m;
            gcfg.n = q.n;
            gcfg.k = q.k;
            gcfg.alpha = q.alpha;
            const double t0 = nowUs();
            for (int rep = 0; rep < sr.reps; ++rep) {
                auto r = engine.run(gcfg);
                if (r.isOk())
                    sim_s += r.value().kernel.seconds;
            }
            sim_ms += (nowUs() - t0) * 1e-3;
        }
        if (worker_probes < 8) {
            serve::WorkerOptions wo;
            wo.engine = off;
            const double t_w = timeMs([&] { (void)serve::runInWorker(sr, wo); });
            worker_ms += t_w - t_off;
            ++worker_probes;
        }
    }
    const double inv = sample.empty() ? 0.0 : 1.0 / static_cast<double>(sample.size());

    // Waiting: client latency minus the in-process service time of the
    // same request, at the nominal rate.
    std::vector<double> waits;
    for (std::size_t i = 0; i < reqs.size(); ++i)
        if (reqs[i].rung == nominal && service_ms[i] >= 0)
            waits.push_back((out[i].doneUs - out[i].scheduledUs) * 1e-3 -
                            service_ms[i]);

    const JsonValue &st = best->stats;
    const JsonValue &adm = st.at("admission");
    const JsonValue &pc = st.at("plan_cache");
    const JsonValue &pk = st.at("pack_cache");
    const JsonValue &runs = st.at("runs");
    const double submitted = std::max(1.0, adm.at("submitted").asNumber());
    const double plan_lookups = pc.at("hits").asNumber() + pc.at("misses").asNumber();
    const double pack_lookups = pk.at("hits").asNumber() + pk.at("misses").asNumber();
    const double executed = runs.at("in_process").asNumber() + runs.at("worker").asNumber();

    result.add("sim.run_ms", "ms", sim_ms * inv);
    // Every GemmEngine::run in the daemon process looks up one plan.
    result.add("sim.calls", "count", plan_lookups);
    result.add("sim.sim_s_per_host_s", "s/s", sim_ms > 0 ? sim_s / (sim_ms * 1e-3) : 0.0);
    result.add("sim.plan_hit_ratio", "share",
               plan_lookups > 0 ? pc.at("hits").asNumber() / plan_lookups : 0.0);
    result.add("blas.pack_hit_ratio", "share",
               pack_lookups > 0 ? pk.at("hits").asNumber() / pack_lookups : 0.0);
    result.add("blas.pack_evictions", "count", pk.at("evictions").asNumber());
    result.add("blas.pack_bytes", "bytes", pk.at("bytes").asNumber());
    result.add("serve.parse_us", "us", pt.parseUs);
    result.add("serve.key_us", "us", pt.keyUs);
    result.add("serve.serialize_us", "us", pt.serializeUs);
    result.add("serve.frame_us", "us", pt.frameUs);
    result.add("serve.engine_ms", "ms", engine_ms * inv);
    result.add("serve.verify_ms", "ms", verify_ms * inv);
    result.add("serve.worker_ms", "ms",
               worker_probes > 0 ? worker_ms / worker_probes : 0.0);
    result.add("serve.wait_ms", "ms", median(waits));
    result.add("serve.queued_share", "share", adm.at("queued").asNumber() / submitted);
    result.add("serve.shed_share", "share", adm.at("shed").asNumber() / submitted);
    result.add("serve.peak_queue_depth", "count", adm.at("peak_queue_depth").asNumber());
    result.add("serve.coalesced_share", "share",
               runs.at("coalesced").asNumber() / static_cast<double>(reqs.size()));
    result.add("serve.worker_share", "share",
               executed > 0 ? runs.at("worker").asNumber() / executed : 0.0);
    result.add("loadgen.late_p99_ms", "ms", nom.lateP99);
    result.add("lat.tail_percentile", "pct", nom.tailP);
    result.add("lat.samples", "count", static_cast<double>(nom.lat.size()));

    const std::vector<Span> spans = tracer.spans();
    // Tracing overhead: what recording these spans inline would have
    // cost the run, at the measured cost of one span.
    result.add("trace.overhead_pct", "%",
               100.0 * spanCostUs() * static_cast<double>(spans.size()) /
                   (t_last - t_first));
    std::ofstream(args.traceOut) << chromeTraceJson(spans);
    return result;
}

} // namespace perfbench
