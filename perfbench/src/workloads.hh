/**
 * @file
 * The three workloads of the repository benchmark (see README.md).
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hh"

namespace perfbench {

struct RunArgs
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 30.0;
    bool trace = false;
    mc::JsonValue config;  ///< this workload's section of workloads.json
    std::string self;      ///< path of this binary (sweep child processes)
    std::string configPath;
    std::string mcServe;   ///< path of the mc_serve binary
    std::string workDir;   ///< sockets and logs, under the repository root
    std::string traceOut;  ///< Chrome trace file of a traced run
};

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

struct RunResult
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    mc::JsonValue details = mc::JsonValue::object();
    std::vector<std::string> problems; ///< why correct is false

    void add(const std::string &name, const std::string &unit, double value)
    {
        metrics.push_back({name, unit, value});
    }
    void fail(const std::string &why)
    {
        correct = false;
        problems.push_back(why);
    }
};

RunResult runPaperSweep(const RunArgs &args);
RunResult runServeWorkload(const RunArgs &args);

/** Entry point of the sweep child process (`mcbench --child ...`). */
int sweepChildMain(const RunArgs &args, bool ready_only);

/** blas/exec/host per-layer metrics that do not depend on the workload:
 *  fast-path GFLOP/s at n = 1024 for 1, 2 and 4 threads, the host
 *  roofline, and thread scaling. */
void addKernelLayerMetrics(RunResult &result);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
