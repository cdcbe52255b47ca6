/**
 * @file
 * chason_dse — design-space exploration for one matrix.
 *
 * Sweeps architecture knobs (matrix channels, PEs per PEG, migration
 * depth, ScUG size) over a matrix, evaluates each point with the
 * closed-form estimator and the resource model, and prints the frontier:
 * latency vs URAM cost, with points that do not fit the U55c flagged.
 *
 * Points are scheduled concurrently on a core::BatchEngine pool
 * (scheduling dominates each point's cost); the point list, the sort
 * and the printed table are independent of the worker count.
 *
 * Usage: chason_dse [--dataset TAG | --mtx FILE] [--raw D] [--jobs N]
 *        [--verify] [--trace FILE] [--artifact-dir DIR]
 *
 * --artifact-dir attaches the on-disk CHSA schedule store, so
 * re-running an exploration (or sharing its store with chason_sweep)
 * serves already-computed schedules from mmap instead of rescheduling.
 *
 * --verify statically verifies every schedule the exploration produces
 * (verify/verifier.h) before its latency is estimated; an illegal
 * schedule aborts the run instead of skewing the frontier.
 *
 * --trace records the exploration (per-point scheduler phase timings,
 * cache traffic, queue depth) as Chrome trace_event JSON.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/table.h"
#include "core/chason.h"
#include "trace/chrome_export.h"
#include "trace/trace.h"

namespace {

using namespace chason;

struct DsePoint
{
    unsigned channels;
    unsigned pes;
    unsigned depth;
    unsigned scug;
    double latency_us;
    std::uint64_t uram;
    bool fits;
    double underutil;
};

/** Evaluate one design point; schedules through the shared cache. */
DsePoint
evaluate(core::BatchEngine &batch, const sparse::CsrMatrix &a,
         unsigned channels, unsigned pes, unsigned depth, unsigned scug,
         unsigned raw)
{
    arch::ArchConfig cfg;
    cfg.sched.channels = channels;
    cfg.sched.pesOverride = pes;
    cfg.sched.rawDistance = raw;
    cfg.sched.migrationDepth = depth;
    cfg.scugSize = scug;
    cfg.sched.rowsPerLanePerPass = cfg.capacityRowsPerLane();

    const std::shared_ptr<const sched::Schedule> sch = depth == 0
        ? batch.schedule(sched::PeAwareScheduler(cfg.sched), a,
                         cfg.capacityRowsPerLane())
        : batch.schedule(sched::CrhcsScheduler(cfg.sched), a,
                         cfg.capacityRowsPerLane());
    const arch::DatapathKind kind = depth == 0
        ? arch::DatapathKind::Serpens
        : arch::DatapathKind::Chason;
    const arch::FpgaResources res = depth == 0
        ? arch::serpensResources(cfg)
        : arch::chasonResources(cfg);

    return {channels, pes, depth, scug,
            arch::estimateLatencyUs(*sch, cfg, kind),
            res.uram, res.fitsU55c(),
            sched::analyze(*sch).underutilizationPercent};
}

} // namespace

int
main(int argc, char **argv)
{
    std::string dataset = "MY";
    std::string mtx;
    unsigned raw = 10;
    unsigned jobs = 0; // 0 = one worker per hardware thread
    bool verify = false;
    std::string trace_path;
    std::string artifact_dir;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--dataset" && i + 1 < argc) {
            dataset = argv[++i];
        } else if (arg == "--mtx" && i + 1 < argc) {
            mtx = argv[++i];
        } else if (arg == "--raw" && i + 1 < argc) {
            raw = static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (arg == "--jobs" && i + 1 < argc) {
            jobs = static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (arg == "--verify") {
            verify = true;
        } else if (arg == "--trace" && i + 1 < argc) {
            trace_path = argv[++i];
        } else if (arg == "--artifact-dir" && i + 1 < argc) {
            artifact_dir = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: chason_dse [--dataset TAG | --mtx FILE] "
                         "[--raw D] [--jobs N] [--verify] [--trace FILE] "
                         "[--artifact-dir DIR]\n");
            return 2;
        }
    }

    sparse::CsrMatrix a;
    if (!mtx.empty()) {
        std::string error;
        const auto coo = sparse::readMatrixMarketFile(mtx, error);
        if (!coo)
            chason_fatal("%s", error.c_str());
        a = coo->toCsr();
    } else {
        a = sparse::table2ByTag(dataset).generate();
    }
    std::printf("design-space exploration for %s (raw distance %u)\n\n",
                a.describe().c_str(), raw);

    struct Knobs
    {
        unsigned channels, pes, depth, scug;
    };
    std::vector<Knobs> grid;
    for (unsigned channels : {8u, 16u})
        for (unsigned pes : {4u, 8u})
            for (unsigned depth : {0u, 1u, 2u})
                for (unsigned scug : {1u, 4u})
                    if (scug <= pes)
                        grid.push_back({channels, pes, depth, scug});

    trace::TraceSink sink;
    core::BatchOptions options;
    options.workers = jobs;
    options.verifySchedules = verify;
    options.artifactDir = artifact_dir;
    if (!trace_path.empty())
        options.traceSink = &sink;
    core::BatchEngine batch(options);

    std::vector<DsePoint> points(grid.size());
    batch.parallelFor(grid.size(), [&](std::size_t i) {
        const Knobs &k = grid[i];
        points[i] =
            evaluate(batch, a, k.channels, k.pes, k.depth, k.scug, raw);
    });

    std::sort(points.begin(), points.end(),
              [](const DsePoint &a_, const DsePoint &b_) {
                  return a_.latency_us < b_.latency_us;
              });

    // Pareto frontier over (latency, URAM) among fitting points.
    std::uint64_t best_uram = ~0ull;
    chason::TextTable t;
    t.setHeader({"ch", "pes", "depth", "scug", "latency (us)", "URAM",
                 "fits", "underutil", "pareto"});
    for (const DsePoint &p : points) {
        const bool pareto = p.fits && p.uram < best_uram;
        if (pareto)
            best_uram = p.uram;
        t.addRow({std::to_string(p.channels), std::to_string(p.pes),
                  std::to_string(p.depth), std::to_string(p.scug),
                  chason::TextTable::num(p.latency_us, 1),
                  std::to_string(p.uram), p.fits ? "yes" : "NO",
                  chason::TextTable::pct(p.underutil, 1), pareto ? "*" : ""});
    }
    t.print();
    std::printf("\n'*' marks the latency-vs-URAM Pareto frontier among "
                "configurations that fit the U55c\n");
    if (!trace_path.empty()) {
        trace::writeChromeTraceFile(sink, trace_path);
        std::printf("trace written to %s (%zu spans)\n",
                    trace_path.c_str(), sink.spans().size());
    }
    return 0;
}
