#include "trace.hh"

#include <algorithm>
#include <cstdio>
#include <thread>

#include "common/json.hh"

namespace perfbench {

namespace {

/** Open spans of this thread, innermost last. Shared by all tracers:
 *  the benchmark records with one tracer at a time. */
thread_local std::vector<int> t_open;

int
threadLane()
{
    static std::mutex mutex;
    static std::map<std::thread::id, int> lanes;
    std::lock_guard<std::mutex> lock(mutex);
    auto [it, inserted] = lanes.emplace(std::this_thread::get_id(),
                                        static_cast<int>(lanes.size()));
    return it->second;
}

} // namespace

double
nowUs()
{
    static const auto origin = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin)
        .count();
}

int
Tracer::begin(const std::string &name, const std::string &layer,
              std::uint64_t request_id)
{
    if (!_enabled)
        return -1;
    const int parent = t_open.empty() ? -1 : t_open.back();
    const int index = record(name, layer, nowUs(), -1.0, request_id, parent);
    t_open.push_back(index);
    return index;
}

void
Tracer::end(int index)
{
    if (index < 0)
        return;
    const double now = nowUs();
    if (!t_open.empty() && t_open.back() == index)
        t_open.pop_back();
    std::lock_guard<std::mutex> lock(_mutex);
    _spans[static_cast<std::size_t>(index)].endUs = now;
}

int
Tracer::record(const std::string &name, const std::string &layer,
               double start_us, double end_us, std::uint64_t request_id,
               int parent)
{
    if (!_enabled)
        return -1;
    Span span;
    span.name = name;
    span.layer = layer;
    span.startUs = start_us;
    span.endUs = end_us;
    span.parent = parent;
    span.requestId = request_id;
    span.tid = threadLane();
    std::lock_guard<std::mutex> lock(_mutex);
    _spans.push_back(std::move(span));
    return static_cast<int>(_spans.size() - 1);
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _spans;
}

std::map<std::string, double>
selfTimeByLayer(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent >= 0)
            children[static_cast<std::size_t>(spans[i].parent)].push_back(i);

    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::vector<std::pair<double, double>> covered;
        for (std::size_t c : children[i]) {
            const double lo = std::max(spans[c].startUs, s.startUs);
            const double hi = std::min(spans[c].endUs, s.endUs);
            if (hi > lo)
                covered.emplace_back(lo, hi);
        }
        std::sort(covered.begin(), covered.end());
        double union_us = 0.0, run_lo = 0.0, run_hi = -1.0;
        for (const auto &[lo, hi] : covered) {
            if (lo > run_hi) {
                if (run_hi > run_lo)
                    union_us += run_hi - run_lo;
                run_lo = lo;
                run_hi = hi;
            } else {
                run_hi = std::max(run_hi, hi);
            }
        }
        if (run_hi > run_lo)
            union_us += run_hi - run_lo;
        self[s.layer] += (s.endUs - s.startUs) - union_us;
    }
    return self;
}

std::string
chromeTraceJson(const std::vector<Span> &spans)
{
    mc::JsonValue events = mc::JsonValue::array();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        mc::JsonValue ev = mc::JsonValue::object();
        ev.set("name", s.name);
        ev.set("cat", s.layer);
        ev.set("ph", "X");
        ev.set("ts", s.startUs);
        ev.set("dur", s.endUs - s.startUs);
        ev.set("pid", 1);
        ev.set("tid", s.tid);
        mc::JsonValue args = mc::JsonValue::object();
        args.set("span", static_cast<std::int64_t>(i));
        args.set("parent", s.parent);
        args.set("request_id", static_cast<std::int64_t>(s.requestId));
        ev.set("args", args);
        events.append(ev);
    }
    mc::JsonValue doc = mc::JsonValue::object();
    doc.set("traceEvents", events);
    doc.set("displayTimeUnit", "ms");
    return doc.serialize(0);
}

} // namespace perfbench
