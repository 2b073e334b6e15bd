/**
 * @file
 * Extension: a quantized GPT-2-style transformer block on the INT8
 * fast path, swept over sequence length. Each point runs the block's
 * GEMM chain — fused QKV projection, per-head attention scores and
 * context (strided-batched), output projection, and the 4x MLP pair —
 * as i8gemm problems (int8 storage, int32 accumulate, requantize) on
 * one simulated GCD, reporting aggregate integer TOPS.
 *
 * Sweep points run on the parallel sweep engine (--jobs): each point
 * owns its simulated device and derives its noise seeds from (bench,
 * point, repetition), so output is byte-identical for any job count —
 * and independent of the host's integer-SIMD tier, which the forced-
 * tier ctest (cmake/CompareVariants.cmake) enforces byte-for-byte.
 *
 * --verify host-checks each stage through the functional INT8 backend
 * against the scalar reference; the quantized combo's contract is
 * exact (docs/PERF.md "Integer kernels"), so any nonzero difference
 * fails the point. Batched attention stages verify through the
 * strided-batched INT8 driver and the packed-operand reuse layer
 * (docs/PERF.md "Operand packing & reuse").
 */

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "blas/gemm.hh"
#include "bench/common/bench_util.hh"
#include "common/cli.hh"
#include "common/csv.hh"
#include "common/plot.hh"
#include "common/table.hh"
#include "exec/journal.hh"
#include "exec/sweep_runner.hh"

namespace {

using namespace mc;

constexpr const char *kBenchName = "ext_quant_transformer";

/** GPT-2 small: hidden 768, 12 heads of 64, 4x MLP. */
constexpr std::size_t kHidden = 768;
constexpr std::size_t kHeads = 12;
constexpr std::size_t kHeadDim = kHidden / kHeads;

struct Stage
{
    const char *name;
    std::size_t m, n, k, batch;
};

/** The block's GEMM chain at sequence length @p seq. */
std::vector<Stage>
blockStages(std::size_t seq)
{
    return {
        {"qkv_proj", seq, 3 * kHidden, kHidden, 1},
        {"attn_scores", seq, seq, kHeadDim, kHeads},
        {"attn_context", seq, kHeadDim, seq, kHeads},
        {"out_proj", seq, kHidden, kHidden, 1},
        {"mlp_up", seq, 4 * kHidden, kHidden, 1},
        {"mlp_down", seq, kHidden, 4 * kHidden, 1},
    };
}

/** Per-tensor quantization for every stage: asymmetric so the
 *  zero-point correction epilogue is part of the measured work. */
blas::QuantParams
blockQuant()
{
    blas::QuantParams qp;
    qp.scaleA = 0.02f;
    qp.scaleB = 0.05f;
    qp.scaleD = 0.25f;
    qp.zeroA = 3;
    qp.zeroB = -5;
    qp.zeroD = 1;
    return qp;
}

double
stageOps(const Stage &s)
{
    return 2.0 * static_cast<double>(s.batch) *
           static_cast<double>(s.m) * static_cast<double>(s.n) *
           static_cast<double>(s.k);
}

struct PointResult
{
    bench::Measurement m; ///< integer ops/s across the whole chain
    int matrixCoreStages = 0;
    int stages = 0;
    std::uint64_t plansComputed = 0;
    std::uint64_t planCacheHits = 0;
    /** -1 = not host-verified, otherwise the number of stages checked.
     *  The exactness contract means a surviving point verified with
     *  max |err| = 0; any mismatch failed the point outright. */
    int verifiedStages = -1;
};

std::string
verifiedCell(const PointResult &r)
{
    if (r.verifiedStages < 0)
        return "-";
    return "ok x" + std::to_string(r.verifiedStages) + " exact";
}

std::string
encodePoint(const PointResult &r)
{
    char buf[192];
    std::snprintf(buf, sizeof(buf), "%.17g,%.17g,%zu,%d,%d,%d,%d,%llu,%llu,%d",
                  r.m.stats.mean, r.m.stats.stddev, r.m.stats.count,
                  r.m.aborted ? 1 : 0, r.m.samplesTaken,
                  r.matrixCoreStages, r.stages,
                  static_cast<unsigned long long>(r.plansComputed),
                  static_cast<unsigned long long>(r.planCacheHits),
                  r.verifiedStages);
    return buf;
}

bool
decodePoint(const std::string &payload, PointResult &r)
{
    std::size_t count = 0;
    int aborted = 0, samples = 0;
    unsigned long long plans = 0, hits = 0;
    if (std::sscanf(payload.c_str(), "%lg,%lg,%zu,%d,%d,%d,%d,%llu,%llu,%d",
                    &r.m.stats.mean, &r.m.stats.stddev, &count, &aborted,
                    &samples, &r.matrixCoreStages, &r.stages, &plans,
                    &hits, &r.verifiedStages) != 10)
        return false;
    r.m.stats.count = count;
    r.m.aborted = aborted != 0;
    r.m.samplesTaken = samples;
    r.plansComputed = plans;
    r.planCacheHits = hits;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("Extension: INT8-quantized transformer block "
                  "(GPT-2 small) vs sequence length");
    bench::addRepsFlag(cli, 10);
    cli.addFlag("maxseq", static_cast<std::int64_t>(2048),
                "largest sequence length attempted (sweep doubles "
                "from 128)");
    cli.requireIntAtLeast("maxseq", 128);
    cli.addFlag("csv", false, "emit CSV instead of a table");
    bench::addOutFlag(cli);
    bench::addJobsFlag(cli);
    bench::addResilienceFlags(cli);
    bench::addVerifyFlags(cli, /*default_enabled=*/true);
    bench::addPlanCacheFlag(cli);
    bench::addPackCacheFlag(cli);
    cli.parse(argc, argv);
    bench::applyPlanCacheFlag(cli);
    bench::applyPackCacheFlag(cli);
    const int reps = static_cast<int>(cli.getInt("reps"));
    const auto maxseq = static_cast<std::size_t>(cli.getInt("maxseq"));
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

    std::vector<std::size_t> points;
    for (std::size_t seq = 128; seq <= maxseq; seq *= 2)
        points.push_back(seq);

    auto point_key = [](std::size_t seq) {
        return "i8block/" + std::to_string(seq);
    };

    const blas::QuantParams qp = blockQuant();
    exec::SweepRunner runner(kBenchName, bench::jobsFlag(cli));
    std::size_t resumed_points = 0;
    const std::vector<Result<PointResult>> results = runner.mapResult(
        points.size(),
        [&](std::size_t i) -> Result<PointResult> {
            const std::size_t seq = points[i];
            const std::string key = point_key(seq);

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

            const std::vector<Stage> stages = blockStages(seq);
            double total_ops = 0.0;
            for (const Stage &s : stages)
                total_ops += stageOps(s);

            PointResult out;
            out.stages = static_cast<int>(stages.size());
            bench::ResilientOptions ropts;
            ropts.repetitions = reps;
            ropts.deadlineSec = res.deadlineSec;
            auto measured = bench::repeatMeasureResilient(
                [&](int rep) -> Result<bench::TimedSample> {
                    rt.gpu().reseedNoise(runner.seedFor(
                        key, static_cast<std::uint64_t>(rep)));
                    double seconds = 0.0;
                    int mc_stages = 0;
                    for (const Stage &s : stages) {
                        blas::GemmConfig cfg;
                        cfg.combo = blas::GemmCombo::I8gemm;
                        cfg.m = s.m;
                        cfg.n = s.n;
                        cfg.k = s.k;
                        cfg.batchCount = s.batch;
                        cfg.alpha = 1.0;
                        cfg.beta = 0.0;
                        cfg.quant = qp;
                        auto result = engine.run(cfg);
                        if (!result.isOk())
                            return result.status();
                        seconds += result.value().kernel.seconds;
                        if (result.value().usedMatrixCores)
                            ++mc_stages;
                    }
                    out.matrixCoreStages = mc_stages;
                    return bench::TimedSample{total_ops / seconds,
                                              seconds};
                },
                ropts);
            if (!measured.isOk()) {
                if (journal)
                    journal->record(
                        {i, key, measured.status().code(), ""});
                return measured.status();
            }
            out.m = measured.value();
            out.plansComputed = engine.planCache().misses();
            out.planCacheHits = engine.planCache().hits();

            // Host-side exactness check: every stage small enough for
            // the O(m*n*k) functional backend runs scalar-vs-fast; the
            // quantized contract tolerates zero difference. The
            // attention stages carry their per-head batch count, so
            // their check runs through fastBatchedQuantizedGemm (up to
            // kMaxVerifyBatchEntries entries, shared stride-0 B) — the
            // same packed-operand reuse path mc_perf's qt chain times.
            if (!out.m.aborted) {
                int checked = 0;
                for (std::size_t si = 0; si < stages.size(); ++si) {
                    const Stage &s = stages[si];
                    if (!vcfg.shouldVerify(s.m, s.n, s.k))
                        continue;
                    blas::GemmConfig cfg;
                    cfg.combo = blas::GemmCombo::I8gemm;
                    cfg.m = s.m;
                    cfg.n = s.n;
                    cfg.k = s.k;
                    cfg.batchCount = s.batch;
                    cfg.alpha = 1.0;
                    cfg.beta = 0.0;
                    cfg.quant = qp;
                    engine.functionalOptions() = vcfg.func;
                    const blas::VerifyResult v = engine.verify(
                        cfg, vcfg.scheme,
                        runner.seedFor(key, (1ull << 32) + si));
                    if (!v.passed) {
                        const Status status(
                            ErrorCode::Internal,
                            std::string("verification failed [") +
                                s.name + "]: " + v.detail);
                        if (journal)
                            journal->record({i, key, status.code(), ""});
                        return status;
                    }
                    ++checked;
                }
                if (checked > 0)
                    out.verifiedStages = checked;
            }
            if (journal)
                journal->record({i, key, ErrorCode::Ok, encodePoint(out)});
            return out;
        },
        res.maxPointFailures);
    if (res.resume && journal)
        resumed_points = journal->loadedOkCount();

    bench::BenchOutput output(cli);
    std::ostream &os = output.stream();
    CsvWriter csv(os);
    if (cli.getBool("csv"))
        csv.writeRow({"seq", "tops", "mc_stages", "verified"});

    AsciiChart chart(64, 14);
    chart.setTitle("Extension (rendered): INT8 transformer block "
                   "throughput vs sequence length");
    chart.setLogX(true);
    chart.setXLabel("sequence length (log)");
    chart.setYLabel("TOPS");

    PlotSeries plot_series;
    plot_series.label = "i8 block";
    plot_series.marker = 'q';
    TextTable table({"seq", "TOPS", "MC stages", "verified"});
    table.setTitle("Extension: quantized GPT-2-small block (hidden 768,"
                   " 12 heads, 4x MLP), i8gemm chain, 1 GCD");

    std::vector<bench::FailedPoint> failures;
    std::uint64_t plans_computed = 0, plan_hits = 0;
    std::size_t verified_points = 0;
    for (std::size_t index = 0; index < points.size(); ++index) {
        const std::size_t seq = points[index];
        if (!results[index].isOk()) {
            const Status &status = results[index].status();
            if (!exec::SweepRunner::isSkippedPointStatus(status))
                failures.push_back({index, point_key(seq), status});
            const std::string cell = std::string("failed: ") +
                                     errorCodeName(status.code());
            if (cli.getBool("csv"))
                csv.writeRow({std::to_string(seq), cell, "-", "-"});
            else
                table.addRow({std::to_string(seq), cell, "-", "-"});
            continue;
        }
        const PointResult &r = results[index].value();
        plans_computed += r.plansComputed;
        plan_hits += r.planCacheHits;
        if (r.verifiedStages > 0)
            ++verified_points;
        if (r.m.aborted) {
            table.addRow({std::to_string(seq), "out of memory", "-",
                          "-"});
            continue;
        }

        plot_series.points.emplace_back(static_cast<double>(seq),
                                        r.m.value() / 1e12);
        const std::string mc_cell = std::to_string(r.matrixCoreStages) +
                                    "/" + std::to_string(r.stages);
        if (cli.getBool("csv")) {
            csv.writeRow({std::to_string(seq), bench::tflopsCell(r.m),
                          mc_cell, verifiedCell(r)});
        } else {
            table.addRow({std::to_string(seq), bench::tflopsCell(r.m),
                          mc_cell, verifiedCell(r)});
        }
    }
    if (!cli.getBool("csv")) {
        table.print(os);
        os << "\n";
        chart.addSeries(std::move(plot_series));
        chart.print(os);
        os << "plan cache: " << plans_computed << " plans computed, "
           << plan_hits << " repetitions served from cache\n";
        if (verified_points > 0)
            os << "verification: " << verified_points
               << " points host-verified against the scalar INT8 "
                  "reference (exact match)\n";
    }
    os << "(paper Table 1 / Fig. 8: the CDNA2 i8 MFMA path doubles "
          "f16 peak; the attention stages' small k = 64 panels keep "
          "the block below GEMM peak)\n";

    bench::printSweepSummary(kBenchName, points.size(), failures,
                             runner.lastStats().skipped, resumed_points);
    return output.finish(kBenchName, runner.lastStats().budgetExhausted
                                         ? ErrorCode::ResourceExhausted
                                         : ErrorCode::Ok);
}
