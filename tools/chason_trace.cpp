/**
 * @file
 * chason_trace — trace one SpMV run and export it.
 *
 * Runs a single simulation with the tracing layer active, writes the
 * device+host timeline as Chrome trace_event JSON (loadable in
 * chrome://tracing or Perfetto) and optionally a flat counters file,
 * and — unless --no-check — verifies the cycle-attribution invariant:
 * the trace's per-category span cycles must reconcile exactly with the
 * run's SpmvReport cycle breakdown, per PEG track included. A mismatch
 * exits non-zero: a trace that disagrees with the report is worse than
 * no trace.
 *
 * Examples:
 *   chason_trace --dataset MY --out trace.json
 *   chason_trace --dataset mycielskian12 --out trace.json \
 *                --counters counters.json
 *   chason_trace --mtx m.mtx --engine serpens --sched schedule.chsa
 *
 * --sched reads a CHSA schedule file (chason_spmv --save-schedule,
 * chason_pack pack) through the schedule cache's admission checks; a
 * file that is corrupt, not CHSA, or keyed for another matrix or
 * scheduler is reported and the tool exits 1.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>

#include "core/chason.h"
#include "core/report_json.h"
#include "trace/attribution.h"
#include "trace/chrome_export.h"

namespace {

using namespace chason;

struct Options
{
    std::string mtx;
    std::string dataset;
    std::string family;
    std::uint32_t rows = 4096;
    std::uint32_t deg = 8;
    std::string engine = "chason";
    std::string sched;
    std::string out = "trace.json";
    std::string counters;
    std::uint64_t seed = 1;
    bool check = true;
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: chason_trace [--mtx FILE | --dataset TAG|NAME | "
                 "--family FAM --rows N --deg D]\n"
                 "                    [--engine chason|serpens] "
                 "[--sched FILE] [--seed S]\n"
                 "                    [--out trace.json] "
                 "[--counters counters.json] [--no-check]\n"
                 "dataset tags: ");
    for (const sparse::DatasetEntry &e : sparse::table2())
        std::fprintf(stderr, "%s ", e.id.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--mtx") {
            opt.mtx = value();
        } else if (arg == "--dataset") {
            opt.dataset = value();
        } else if (arg == "--family") {
            opt.family = value();
        } else if (arg == "--rows") {
            opt.rows = static_cast<std::uint32_t>(
                std::strtoul(value().c_str(), nullptr, 10));
        } else if (arg == "--deg") {
            opt.deg = static_cast<std::uint32_t>(
                std::strtoul(value().c_str(), nullptr, 10));
        } else if (arg == "--engine") {
            opt.engine = value();
        } else if (arg == "--sched") {
            opt.sched = value();
        } else if (arg == "--out") {
            opt.out = value();
        } else if (arg == "--counters") {
            opt.counters = value();
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg == "--no-check") {
            opt.check = false;
        } else {
            usage();
        }
    }
    return opt;
}

/** Table 2 lookup by two-letter tag or full matrix name. */
const sparse::DatasetEntry &
findDataset(const std::string &key)
{
    for (const sparse::DatasetEntry &e : sparse::table2()) {
        if (e.id == key || e.name == key)
            return e;
    }
    chason_fatal("unknown dataset '%s' (tag or name)", key.c_str());
}

sparse::CsrMatrix
loadMatrix(const Options &opt, std::string &label)
{
    if (!opt.mtx.empty()) {
        label = opt.mtx;
        std::string error;
        auto coo = sparse::readMatrixMarketFile(opt.mtx, error);
        if (!coo)
            chason_fatal("%s", error.c_str());
        return std::move(*coo).toCsr();
    }
    if (!opt.dataset.empty()) {
        const sparse::DatasetEntry &entry = findDataset(opt.dataset);
        label = entry.name;
        return entry.generate();
    }
    if (!opt.family.empty()) {
        Rng rng(opt.seed);
        label = opt.family;
        const std::size_t nnz =
            static_cast<std::size_t>(opt.rows) * opt.deg;
        if (opt.family == "zipf")
            return sparse::zipfRows(opt.rows, opt.rows, nnz, 1.2, rng);
        if (opt.family == "graph")
            return sparse::preferentialAttachment(opt.rows, opt.deg, rng);
        if (opt.family == "banded")
            return sparse::banded(opt.rows, opt.deg, 0.5, rng);
        if (opt.family == "arrow")
            return sparse::arrowBanded(opt.rows, opt.deg, 0.4, 3, rng);
        if (opt.family == "er")
            return sparse::erdosRenyi(opt.rows, opt.rows, nnz, rng);
        if (opt.family == "poisson") {
            const auto grid = static_cast<std::uint32_t>(
                std::sqrt(static_cast<double>(opt.rows)));
            return sparse::poisson2d(std::max(2u, grid));
        }
        chason_fatal("unknown family '%s'", opt.family.c_str());
    }
    label = "mycielskian10";
    return sparse::mycielskian(10);
}

trace::CycleTotals
totalsOf(const arch::CycleBreakdown &cycles)
{
    trace::CycleTotals t;
    t.matrixStream = cycles.matrixStream;
    t.xLoad = cycles.xLoad;
    t.pipelineFill = cycles.pipelineFill;
    t.reduction = cycles.reduction;
    t.writeback = cycles.writeback;
    t.instStream = cycles.instStream;
    t.launch = cycles.launch;
    return t;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);
    if (!trace::kEnabled) {
        std::fprintf(stderr,
                     "chason_trace: built with -DCHASON_TRACE=OFF; the "
                     "trace will be empty\n");
    }

    std::string label;
    const sparse::CsrMatrix a = loadMatrix(opt, label);

    core::Engine::Kind kind;
    if (opt.engine == "chason")
        kind = core::Engine::Kind::Chason;
    else if (opt.engine == "serpens")
        kind = core::Engine::Kind::Serpens;
    else
        usage();

    Rng rng(opt.seed ^ 0xABCD);
    const std::vector<float> x = sparse::randomVector(a.cols(), rng);

    const core::Engine engine(kind);
    trace::TraceSink sink;
    core::SpmvReport report;
    {
        trace::ScopedSink scope(sink);
        std::optional<sched::Schedule> sch;
        if (opt.sched.empty()) {
            sch = engine.schedule(a);
        } else {
            std::string why;
            sch = core::loadArtifact(
                opt.sched, core::scheduleKey(engine.scheduler(), a), why);
            if (!sch) {
                std::fprintf(stderr, "%s: %s\n", opt.sched.c_str(),
                             why.c_str());
                return 1;
            }
        }
        report = engine.runScheduled(*sch, a, x, label);
    }

    std::printf("%s on %s: %llu cycles, %.4f ms, %.3f GFLOPS\n",
                report.accelerator.c_str(), label.c_str(),
                static_cast<unsigned long long>(report.cycles),
                report.latencyMs, report.gflops);

    trace::writeChromeTraceFile(sink, opt.out);
    std::printf("trace written to %s (%zu spans)\n", opt.out.c_str(),
                sink.spans().size());

    if (!opt.counters.empty()) {
        std::FILE *f = std::fopen(opt.counters.c_str(), "w");
        if (!f)
            chason_fatal("cannot create counters file '%s'",
                         opt.counters.c_str());
        std::string json;
        common::JsonWriter(json)
            .beginObject()
            .key("report").raw(core::toJson(report))
            .key("trace").raw(trace::countersJson(sink))
            .endObject();
        json += '\n';
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
        std::printf("counters written to %s\n", opt.counters.c_str());
    }

    if (opt.check && trace::kEnabled) {
        const trace::AttributionCheck check = trace::checkCycleAttribution(
            sink, totalsOf(report.cycleBreakdown),
            engine.config().sched.channels);
        if (!check.ok) {
            std::fprintf(stderr, "cycle attribution FAILED: %s\n",
                         check.message.c_str());
            return 1;
        }
        std::printf("cycle attribution OK: trace reconciles with the "
                    "report breakdown across %u PEG tracks\n",
                    engine.config().sched.channels);
    }
    return 0;
}
