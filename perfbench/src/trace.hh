/**
 * @file
 * In-memory span recorder of the traced benchmark run.
 *
 * A span is one timed call into a layer's public entry point: name,
 * layer, start, end, the span that caused it, and the request it
 * belongs to. Spans are kept in memory and written once at the end as
 * a Chrome trace-event JSON file (open it at ui.perfetto.dev). A
 * layer's self time is the time its spans cover minus the part of
 * each span that its child spans cover.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic microseconds since an arbitrary process-wide origin. */
double nowUs();

struct Span
{
    std::string name;
    std::string layer;
    double startUs = 0.0;
    double endUs = 0.0;
    int parent = -1;             ///< index into the span list, -1 = root
    std::uint64_t requestId = 0; ///< 0 = not tied to a request
    int tid = 0;                 ///< recording thread (trace lane)
};

/**
 * Self time per layer, in microseconds: each span's duration minus
 * the union of its children's intervals (clipped to the span).
 */
std::map<std::string, double> selfTimeByLayer(const std::vector<Span> &spans);

/** Serialize @p spans as a Chrome trace-event JSON document. */
std::string chromeTraceJson(const std::vector<Span> &spans);

class Tracer
{
  public:
    /** A disabled tracer records nothing and costs one branch. */
    explicit Tracer(bool enabled) : _enabled(enabled) {}

    bool enabled() const { return _enabled; }

    /** Open a span; the parent is the innermost open span of the
     *  calling thread. Returns its index, or -1 when disabled. */
    int begin(const std::string &name, const std::string &layer,
              std::uint64_t request_id = 0);
    void end(int index);

    /** Record a span whose interval was measured elsewhere (e.g. a
     *  request timed from its scheduled send to its response). */
    int record(const std::string &name, const std::string &layer,
               double start_us, double end_us, std::uint64_t request_id,
               int parent = -1);

    std::vector<Span> spans() const;

    /** RAII span. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const std::string &name,
              const std::string &layer, std::uint64_t request_id = 0)
            : _tracer(tracer),
              _index(tracer.begin(name, layer, request_id))
        {}
        ~Scope() { _tracer.end(_index); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &_tracer;
        int _index;
    };

  private:
    bool _enabled;
    mutable std::mutex _mutex;
    std::vector<Span> _spans;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
