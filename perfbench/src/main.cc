// mcbench: runs one workload of the repository benchmark and prints one
// JSON document (metrics, correctness, details) as its last line.
//
//   mcbench --workload <paper_sweep|serve_small>
//           --seed <n> --seconds <s> --trace <0|1>
//           --config perfbench/workloads.json --mc-serve <path>
//           --work-dir <dir> [--trace-out <file>]
//
// perfbench/run.py builds it and is the benchmark's entry point.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "blas/gemm_types.hh"
#include "exec/thread_pool.hh"
#include "layers.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

int
usage(const char *why)
{
    std::fprintf(stderr, "mcbench: %s\n", why);
    return 2;
}

} // namespace

void
addKernelLayerMetrics(RunResult &result)
{
    using mc::blas::GemmCombo;
    const std::pair<GemmCombo, const char *> combos[] = {
        {GemmCombo::Dgemm, "dgemm"}, {GemmCombo::Sgemm, "sgemm"},
        {GemmCombo::Hgemm, "hgemm"}, {GemmCombo::Hhs, "hhs"},
        {GemmCombo::Hss, "hss"},     {GemmCombo::I8gemm, "i8gemm"}};
    mc::exec::setConcurrencyCap(mc::exec::ThreadPool::hardwareThreads());
    const double peak32 = hostPeakGflops(false);
    const double peak64 = hostPeakGflops(true);
    const double stream = streamTriadGbs();
    const std::size_t n = 1024;
    double log2 = 0, log4 = 0;
    std::vector<std::pair<std::string, double>> roof;
    for (const auto &[combo, name] : combos) {
        const double t1 = fastGemmGflops(combo, n, 1, 2);
        const double t2 = fastGemmGflops(combo, n, 2, 3);
        const double t4 = fastGemmGflops(combo, n, 4, 3);
        result.add(std::string("blas.gflops.") + name + ".t1", "GFLOP/s", t1);
        result.add(std::string("blas.gflops.") + name + ".t2", "GFLOP/s", t2);
        result.add(std::string("blas.gflops.") + name + ".t4", "GFLOP/s", t4);
        log2 += std::log(t2 / t1);
        log4 += std::log(t4 / t1);
        // Attainable = min(peak, intensity x bandwidth); an n = 1024
        // GEMM's intensity puts it far on the compute side.
        const double elem = combo == GemmCombo::Dgemm ? 8 : combo == GemmCombo::Sgemm ? 4
                            : combo == GemmCombo::I8gemm ? 1 : 2;
        const double intensity = 2.0 * n / (3.0 * elem);
        const double peak = combo == GemmCombo::Dgemm ? peak64 : peak32;
        roof.emplace_back(std::string("blas.roofline_pct.") + name + ".t1",
                          100.0 * t1 / std::min(peak, intensity * stream));
    }
    for (const auto &[name, value] : roof)
        result.add(name, "%", value);
    result.add("host.peak_gflops_f32", "GFLOP/s", peak32);
    result.add("host.peak_gflops_f64", "GFLOP/s", peak64);
    result.add("host.stream_gbs", "GB/s", stream);
    result.add("exec.scaling_eff.t2", "x", std::exp(log2 / 6));
    result.add("exec.scaling_eff.t4", "x", std::exp(log4 / 6));
    result.details.set("peak_tier", peakTier());
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    RunArgs args;
    std::string child;
    char self[4096];
    const ssize_t len = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
    if (len <= 0)
        return usage("cannot resolve own path");
    self[len] = '\0';
    args.self = self;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i], value = argv[i + 1];
        if (flag == "--workload") args.workload = value;
        else if (flag == "--seed") args.seed = std::stoull(value);
        else if (flag == "--seconds") args.seconds = std::stod(value);
        else if (flag == "--trace") args.trace = value == "1";
        else if (flag == "--config") args.configPath = value;
        else if (flag == "--mc-serve") args.mcServe = value;
        else if (flag == "--work-dir") args.workDir = value;
        else if (flag == "--trace-out") args.traceOut = value;
        else if (flag == "--child") child = value;
        else return usage(("unknown flag " + flag).c_str());
    }
    auto config = mc::JsonValue::parse(readFile(args.configPath));
    if (!config.isOk() || !config.value().has(args.workload))
        return usage("missing or unknown --workload / --config");
    args.config = config.value().at(args.workload);

    if (!child.empty())
        return sweepChildMain(args, child == "ready");

    RunResult result = args.workload == "paper_sweep" ? runPaperSweep(args)
                                                      : runServeWorkload(args);
    // run.py reports the per-layer metrics of layers this workload leaves
    // idle, from the list in BENCHMARK.json.
    if (args.trace && result.correct)
        addKernelLayerMetrics(result);
    mc::JsonValue metrics = mc::JsonValue::object();
    for (const Metric &m : result.metrics) {
        mc::JsonValue v = mc::JsonValue::object();
        v.set("value", m.value);
        v.set("unit", m.unit);
        metrics.set(m.name, v);
    }
    mc::JsonValue problems = mc::JsonValue::array();
    for (const std::string &p : result.problems)
        problems.append(p);
    mc::JsonValue doc = mc::JsonValue::object();
    doc.set("correct", result.correct);
    doc.set("attempted", static_cast<std::int64_t>(result.attempted));
    doc.set("failed", static_cast<std::int64_t>(result.failed));
    doc.set("metrics", metrics);
    doc.set("problems", problems);
    doc.set("details", result.details);
    std::printf("%s\n", doc.serialize(0).c_str());
    return 0;
}
