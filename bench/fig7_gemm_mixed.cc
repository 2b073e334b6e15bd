/**
 * @file
 * Figure 7 (+ the Section VII speedup analysis): rocBLAS-style GEMM
 * throughput for the three half-input datatype combinations of
 * Table III — HGEMM, HSS, and HHS — over N = 16 ... 65536, plus the
 * Matrix-Core-over-SIMD speedup using HGEMM as the SIMD reference.
 *
 * Points run on the parallel sweep engine (--jobs) with per-point
 * devices and derived noise seeds: output is identical for any job
 * count. The resilience flags (--inject, --max-point-failures,
 * --journal, --resume; see docs/RESILIENCE.md) isolate failed points
 * and make interrupted runs resumable from their journal.
 */

#include <cstdio>
#include <iostream>
#include <map>
#include <optional>
#include <vector>

#include "blas/gemm.hh"
#include "bench/common/bench_util.hh"
#include "common/cli.hh"
#include "common/table.hh"
#include "exec/journal.hh"
#include "exec/sweep_runner.hh"

namespace {

using namespace mc;

constexpr const char *kBenchName = "fig7_gemm_mixed";

const blas::GemmCombo kCombos[] = {
    blas::GemmCombo::Hgemm,
    blas::GemmCombo::Hss,
    blas::GemmCombo::Hhs,
};

struct Point
{
    blas::GemmCombo combo;
    std::size_t n;
};

struct PointResult
{
    bench::Measurement m;
    /** -1 = not host-verified, 1 = verified OK (a failed check fails
     *  the point with Internal instead). */
    int verified = -1;
    std::uint64_t maxUlp = 0;
};

/** Journal payload: the fields the rendering reads. */
std::string
encodePoint(const PointResult &r)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%.17g,%.17g,%zu,%d,%d,%d,%llu",
                  r.m.stats.mean, r.m.stats.stddev, r.m.stats.count,
                  r.m.aborted ? 1 : 0, r.m.samplesTaken, r.verified,
                  static_cast<unsigned long long>(r.maxUlp));
    return buf;
}

bool
decodePoint(const std::string &payload, PointResult &r)
{
    std::size_t count = 0;
    int aborted = 0, samples = 0, verified = -1;
    unsigned long long ulp = 0;
    if (std::sscanf(payload.c_str(), "%lg,%lg,%zu,%d,%d,%d,%llu",
                    &r.m.stats.mean, &r.m.stats.stddev, &count, &aborted,
                    &samples, &verified, &ulp) != 7)
        return false;
    r.m.stats.count = count;
    r.m.aborted = aborted != 0;
    r.m.samplesTaken = samples;
    r.verified = verified;
    r.maxUlp = ulp;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("Figure 7: HGEMM/HSS/HHS throughput vs matrix size");
    bench::addRepsFlag(cli, 10);
    cli.addFlag("maxn", static_cast<std::int64_t>(65536),
                "largest matrix dimension attempted");
    cli.requireIntAtLeast("maxn", 16);
    bench::addJobsFlag(cli);
    bench::addResilienceFlags(cli);
    bench::addOutFlag(cli);
    bench::addVerifyFlags(cli, /*default_enabled=*/true);
    bench::addPlanCacheFlag(cli);
    bench::addPackCacheFlag(cli);
    cli.parse(argc, argv);
    bench::applyPlanCacheFlag(cli);
    bench::applyPackCacheFlag(cli);
    const int reps = static_cast<int>(cli.getInt("reps"));
    const auto maxn = static_cast<std::size_t>(cli.getInt("maxn"));
    const bench::SweepResilience res = bench::resilienceFlags(cli);
    const bench::VerifyConfig vcfg = bench::verifyFlags(cli);

    std::optional<exec::SweepJournal> journal;
    if (!res.journalPath.empty()) {
        auto opened = res.resume
            ? exec::SweepJournal::open(res.journalPath, kBenchName)
            : exec::SweepJournal::create(res.journalPath, kBenchName);
        if (!opened.isOk()) {
            std::fprintf(stderr, "[%s] journal: %s\n", kBenchName,
                         opened.status().toString().c_str());
            return bench::finishBench(kBenchName, opened.status().code());
        }
        journal.emplace(std::move(opened.value()));
    }

    bench::BenchOutput output(cli);
    std::ostream &os = output.stream();

    // Table III reminder.
    TextTable types({"operation", "typeAB", "typeCD", "compute type"});
    types.setTitle("Table III: datatypes of the half- and "
                   "mixed-precision GEMM operations");
    types.setAlignment({Align::Left, Align::Left, Align::Left,
                        Align::Left});
    for (blas::GemmCombo combo : kCombos) {
        const auto &info = blas::comboInfo(combo);
        types.addRow({info.name, arch::dataTypeName(info.typeAB),
                      arch::dataTypeName(info.typeCD),
                      arch::dataTypeName(info.computeType)});
    }
    types.print(os);
    os << "\n";

    // One sweep point per (N, combo), in the row-major order the table
    // is rendered in.
    std::vector<Point> points;
    for (std::size_t n = 16; n <= maxn; n *= 2)
        for (blas::GemmCombo combo : kCombos)
            points.push_back({combo, n});

    auto point_key = [&](const Point &pt) {
        return std::string(blas::comboInfo(pt.combo).name) + "/" +
               std::to_string(pt.n);
    };

    exec::SweepRunner runner(kBenchName, bench::jobsFlag(cli));
    std::size_t resumed_points = 0;
    const std::vector<Result<PointResult>> results =
        runner.mapResult(
            points.size(),
            [&](std::size_t i) -> Result<PointResult> {
                const Point &pt = points[i];
                const std::string key = point_key(pt);

                if (res.resume && journal) {
                    const exec::JournalEntry *entry = journal->find(i);
                    PointResult loaded;
                    if (entry && entry->ok() &&
                        decodePoint(entry->payload, loaded))
                        return loaded;
                }

                fault::Injector faults =
                    res.injectorFor(runner.seedFor(key, 0));
                sim::SimOptions sim_opts;
                sim_opts.faults = faults.enabled() ? &faults : nullptr;
                hip::Runtime rt(arch::defaultCdna2(), sim_opts);
                blas::GemmEngine engine(rt);

                blas::GemmConfig cfg;
                cfg.combo = pt.combo;
                cfg.m = cfg.n = cfg.k = pt.n;
                cfg.alpha = cfg.beta = 0.1;

                bench::ResilientOptions ropts;
                ropts.repetitions = reps;
                ropts.deadlineSec = res.deadlineSec;
                auto measured = bench::repeatMeasureResilient(
                    [&](int rep) -> Result<bench::TimedSample> {
                        rt.gpu().reseedNoise(runner.seedFor(
                            key, static_cast<std::uint64_t>(rep)));
                        auto result = engine.run(cfg);
                        if (!result.isOk())
                            return result.status();
                        return bench::TimedSample{
                            result.value().throughput(),
                            result.value().kernel.seconds};
                    },
                    ropts);
                if (!measured.isOk()) {
                    if (journal)
                        journal->record(
                            {i, key, measured.status().code(), ""});
                    return measured.status();
                }

                PointResult out;
                out.m = measured.value();

                // Host-side numeric verification (docs/PERF.md): a
                // wrong result invalidates the measurement, so a
                // failed check fails the point.
                if (!out.m.aborted &&
                    vcfg.shouldVerify(cfg.m, cfg.n, cfg.k)) {
                    engine.functionalOptions() = vcfg.func;
                    const blas::VerifyResult v = engine.verify(
                        cfg, vcfg.scheme,
                        runner.seedFor(key, 1ull << 32));
                    if (!v.passed) {
                        const Status status(
                            ErrorCode::Internal,
                            "verification failed: " + v.detail);
                        if (journal)
                            journal->record({i, key, status.code(), ""});
                        return status;
                    }
                    out.verified = 1;
                    out.maxUlp = v.maxUlp;
                }
                if (journal)
                    journal->record(
                        {i, key, ErrorCode::Ok, encodePoint(out)});
                return out;
            },
            res.maxPointFailures);
    if (res.resume && journal)
        resumed_points = journal->loadedOkCount();

    std::map<blas::GemmCombo, std::map<std::size_t, double>> tflops;
    std::vector<bench::FailedPoint> failures;
    std::size_t verified_points = 0;
    std::uint64_t verified_max_ulp = 0;

    TextTable table({"N", "hgemm", "hss", "hhs", "hhs/hgemm speedup"});
    table.setTitle("Figure 7: N x N x N GEMM throughput (TFLOPS), "
                   "alpha = beta = 0.1, 1 GCD");
    std::size_t index = 0;
    for (std::size_t n = 16; n <= maxn; n *= 2) {
        std::vector<std::string> row{std::to_string(n)};
        bool any_oom = false;
        for (blas::GemmCombo combo : kCombos) {
            const std::size_t point_index = index++;
            if (!results[point_index].isOk()) {
                const Status &status = results[point_index].status();
                if (!exec::SweepRunner::isSkippedPointStatus(status))
                    failures.push_back({point_index,
                                        point_key(points[point_index]),
                                        status});
                row.push_back(std::string("failed: ") +
                              errorCodeName(status.code()));
                continue;
            }
            const PointResult &r = results[point_index].value();
            if (r.verified > 0) {
                ++verified_points;
                verified_max_ulp = std::max(verified_max_ulp, r.maxUlp);
            }
            if (r.m.aborted) {
                row.push_back("OOM");
                any_oom = true;
            } else {
                tflops[combo][n] = r.m.value();
                row.push_back(bench::tflopsCell(r.m));
            }
        }
        if (tflops[blas::GemmCombo::Hhs].count(n) &&
            tflops[blas::GemmCombo::Hgemm].count(n)) {
            char cell[16];
            std::snprintf(cell, sizeof(cell), "%.1fx",
                          tflops[blas::GemmCombo::Hhs][n] /
                              tflops[blas::GemmCombo::Hgemm][n]);
            row.push_back(cell);
        } else {
            row.push_back("-");
        }
        table.addRow(row);
        if (any_oom)
            break;
    }
    table.print(os);

    // Section VII: speedup range over the sweep (N >= 1024, where the
    // device is reasonably utilized).
    std::vector<double> ratios;
    for (const auto &[n, hhs] : tflops[blas::GemmCombo::Hhs]) {
        if (n >= 1024 && tflops[blas::GemmCombo::Hgemm].count(n))
            ratios.push_back(hhs / tflops[blas::GemmCombo::Hgemm][n]);
    }
    os << "\nMatrix Core speedup over SIMD (HHS vs HGEMM, N >= 1024): "
       << bench::speedupRange(ratios) << " (paper: 2.3x - 7.5x)\n";
    if (verified_points > 0)
        os << "verification: " << verified_points
           << " points host-verified, max ULP = " << verified_max_ulp
           << "\n";
    os << "(paper Fig. 7: HHS peaks at 155 TFLOPS = 88% of the "
          "one-GCD plateau; HHS > HSS for N > 1024; HGEMM never "
          "uses Matrix Cores)\n";

    bench::printSweepSummary(kBenchName, points.size(), failures,
                             runner.lastStats().skipped, resumed_points);
    return output.finish(kBenchName, runner.lastStats().budgetExhausted
                                         ? ErrorCode::ResourceExhausted
                                         : ErrorCode::Ok);
}
