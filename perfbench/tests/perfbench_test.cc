// Unit tests of the benchmark harness itself. Run:
//   .bench_build/perfbench/mcbench_test   (built by perfbench/run.py)

#include <cmath>
#include <cstdio>
#include <set>
#include <string>

#include <sys/socket.h>
#include <unistd.h>

#include "common/json.hh"
#include "layers.hh"
#include "loadgen.hh"
#include "mixes.hh"
#include "serve/protocol.hh"
#include "stats.hh"
#include "trace.hh"

using namespace perfbench;

namespace {

int g_failures = 0;

#define CHECK(cond)                                                        \
    do {                                                                   \
        if (!(cond)) {                                                     \
            std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,    \
                         __LINE__, #cond);                                 \
            ++g_failures;                                                  \
        }                                                                  \
    } while (0)

void
tailPercentileRule()
{
    CHECK(tailPercentile(0) == 0.0);
    CHECK(tailPercentile(19) == 0.0);
    CHECK(tailPercentile(20) == 50.0);   // 10 beyond p50
    CHECK(tailPercentile(99) == 50.0);   // 9.9 beyond p90: not enough
    CHECK(tailPercentile(100) == 90.0);
    CHECK(tailPercentile(999) == 90.0);
    CHECK(tailPercentile(1000) == 99.0);
    CHECK(tailPercentile(9999) == 99.0);
    CHECK(tailPercentile(10000) == 99.9);
    CHECK(tailPercentile(100000) == 99.99);

    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    CHECK(percentile(v, 50) == 50.0); // nearest rank: ceil(0.5 * 100)
    CHECK(percentile(v, 90) == 90.0);
    CHECK(percentile(v, 100) == 100.0);
    CHECK(median({3, 1, 2}) == 2.0);
    CHECK(median({4, 1, 2, 3}) == 2.5);
}

void
schedulesReproduce()
{
    Ladder ladder;
    ladder.rates = {20, 40, 80};
    ladder.seconds = {2.0, 2.0, 2.0};
    ladder.gapSeconds = 0.5;
    const auto a = serveSmallMix(7, ladder, 0.1, "hip=0.1");
    const auto b = serveSmallMix(7, ladder, 0.1, "hip=0.1");
    const auto c = serveSmallMix(8, ladder, 0.1, "hip=0.1");
    CHECK(a.size() == 40 + 80 + 160);
    // Fixed count per window: each rung's arrivals lie in its window.
    for (const Request &q : a) {
        const double lo = 2.5 * static_cast<double>(q.rung);
        CHECK(q.sendAt >= lo && q.sendAt < lo + 2.0);
    }
    CHECK(a.size() == b.size());
    bool same = true, differs = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        same = same && a[i].sendAt == b[i].sendAt &&
               a[i].frame("x") == b[i].frame("x");
        differs = differs || a[i].sendAt != c[i].sendAt;
    }
    CHECK(same);
    CHECK(differs);

    // Rungs follow each other, arrivals are ordered, keys are distinct,
    // and the inject share is exact.
    std::set<std::string> keys;
    std::size_t inject = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (i > 0) {
            CHECK(a[i].sendAt > a[i - 1].sendAt);
            CHECK(a[i].rung >= a[i - 1].rung);
        }
        auto parsed = mc::serve::parseRequest(a[i].frame("x"));
        CHECK(parsed.isOk());
        if (parsed.isOk())
            keys.insert(mc::serve::canonicalKey(parsed.value()));
        inject += a[i].inject ? 1 : 0;
    }
    CHECK(keys.size() == a.size());
    CHECK(inject == 28);
}

void
selfTimeArithmetic()
{
    std::vector<Span> spans(5);
    spans[0] = {"root", "bench", 0, 100, -1, 0, 0};
    spans[1] = {"a", "sim", 10, 30, 0, 0, 0};
    spans[2] = {"b", "blas", 20, 50, 0, 0, 0};  // overlaps a: union 10..50
    spans[3] = {"c", "blas", 60, 70, 0, 0, 0};
    spans[4] = {"d", "exec", 25, 45, 2, 0, 0};  // inside b
    const auto self = selfTimeByLayer(spans);
    CHECK(std::fabs(self.at("bench") - 50.0) < 1e-9);       // 100 - (40 + 10)
    CHECK(std::fabs(self.at("sim") - 20.0) < 1e-9);
    CHECK(std::fabs(self.at("blas") - (30.0 - 20.0 + 10.0)) < 1e-9);
    CHECK(std::fabs(self.at("exec") - 20.0) < 1e-9);
    double total = 0;
    for (const auto &[layer, us] : self)
        total += us;
    CHECK(total > 100.0 - 1e-9); // overlapping siblings count twice

    // A child sticking out of its parent is clipped.
    std::vector<Span> clip = {{"p", "x", 0, 10, -1, 0, 0},
                              {"c", "y", 5, 20, 0, 0, 0}};
    CHECK(std::fabs(selfTimeByLayer(clip).at("x") - 5.0) < 1e-9);

    Tracer tracer(true);
    {
        Tracer::Scope outer(tracer, "outer", "bench", 3);
        Tracer::Scope inner(tracer, "inner", "sim", 3);
    }
    const auto recorded = tracer.spans();
    CHECK(recorded.size() == 2);
    CHECK(recorded[1].parent == 0);
    auto doc = mc::JsonValue::parse(chromeTraceJson(recorded));
    CHECK(doc.isOk());
    if (doc.isOk()) {
        const auto &events = doc.value().at("traceEvents");
        CHECK(events.size() == 2);
        CHECK(events.at(0).at("ph").asString() == "X");
        CHECK(events.at(1).at("args").at("parent").asInt() == 0);
        CHECK(events.at(1).at("args").at("request_id").asInt() == 3);
    }
    Tracer off(false);
    CHECK(off.begin("x", "y") == -1);
    CHECK(off.spans().empty());
}

void
frameRoundTrip()
{
    int fds[2];
    CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0);
    const std::string payload =
        "{\"id\": \"r1\", \"code\": \"Ok\", \"payload\": {\"n\": 16}}";
    CHECK(mc::serve::writeFrame(fds[0], payload).isOk());
    auto got = mc::serve::readFrame(fds[1]);
    CHECK(got.isOk() && got.value() && *got.value() == payload);
    ::close(fds[0]);
    auto eof = mc::serve::readFrame(fds[1]);
    CHECK(eof.isOk() && !eof.value()); // clean end of stream
    ::close(fds[1]);

    CHECK(responsePayload(payload) == "{\"n\": 16}}");
    CHECK(responsePayload("{\"id\": \"r1\", \"code\": \"Internal\"}").empty());
    CHECK(responsePayload(mc::serve::okResponse("r1", mc::JsonValue(1))) == "1}");

    const ProtocolTimes t = protocolTimes(
        {"{\"kind\":\"gemm\",\"id\":\"a\",\"n\":16}"}, {payload});
    CHECK(t.parseUs > 0);
    CHECK(t.keyUs > 0);
    CHECK(t.serializeUs > 0);
    CHECK(t.frameUs > 0);
}

} // namespace

int
main()
{
    tailPercentileRule();
    schedulesReproduce();
    selfTimeArithmetic();
    frameRoundTrip();
    if (g_failures == 0)
        std::printf("mcbench_test: all checks passed\n");
    return g_failures == 0 ? 0 : 1;
}
