/**
 * @file
 * Perf trajectory, simulation leg: streaming-simulation throughput over
 * the R-MAT ladder, emitted as BENCH_sim.json.
 *
 * Times Accelerator::runPlanned, the replay of a held StreamPlan that
 * an offline schedule amortizes over many SpMV invocations, in
 * simulated cycles per wall second. Before timing, each tier once
 * asserts that the held plan's replay is bit-identical to a one-off
 * run() (a fresh build and its replay: y and every cycle counter). The
 * checksum is the double sum of y; test_perf_determinism pins y itself
 * by digest.
 *
 * Knobs: CHASON_PERF_TIERS picks tiers, --out changes the report path.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "arch/chason_accel.h"
#include "arch/stream_soa.h"
#include "common/logging.h"
#include "perf_emit.h"
#include "sched/crhcs.h"
#include "sparse/generators.h"
#include "support.h"

using namespace chason;

int
main(int argc, char **argv)
{
    std::string out = "BENCH_sim.json";
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0)
            out = argv[i + 1];
    }

    bench::printHeader("Perf trajectory: streaming simulation throughput",
                       "docs/PERFORMANCE.md (BENCH_sim.json)");

    arch::ArchConfig ac;
    const arch::ChasonAccelerator accel(ac);
    const sched::CrhcsScheduler scheduler(ac.sched);

    std::vector<bench::PerfSample> samples;
    for (const bench::PerfTier &tier : bench::selectedPerfTiers()) {
        Rng rng = bench::tierRng(tier.name);
        const sparse::CsrMatrix a =
            sparse::rmat(tier.scale, tier.nnzTarget, rng);
        const std::vector<float> x = sparse::randomVector(a.cols(), rng);

        const sched::Schedule schedule = scheduler.schedule(a);
        const arch::StreamPlan plan(schedule, accel.migrationDepth());

        // Identity gate: a held plan must replay exactly what a fresh
        // build does before its speed is worth reporting.
        const arch::RunResult ref = accel.run(schedule, x);
        const arch::RunResult planned = accel.runPlanned(schedule, plan, x);
        const arch::CycleBreakdown &rc = ref.cycles;
        const arch::CycleBreakdown &pc = planned.cycles;
        chason_assert(ref.y == planned.y &&
                          rc.matrixStream == pc.matrixStream &&
                          rc.xLoad == pc.xLoad &&
                          rc.pipelineFill == pc.pipelineFill &&
                          rc.reduction == pc.reduction &&
                          rc.writeback == pc.writeback &&
                          rc.instStream == pc.instStream &&
                          rc.launch == pc.launch,
                      "held plan diverged from run() on tier %s",
                      tier.name);

        for (unsigned w = 0; w < tier.warmups; ++w)
            (void)accel.runPlanned(schedule, plan, x);

        std::vector<double> times_ms;
        double checksum = 0.0;
        std::uint64_t cycles = 0;
        while (bench::keepTiming(tier, times_ms)) {
            const double t0 = bench::nowMs();
            const arch::RunResult r = accel.runPlanned(schedule, plan, x);
            times_ms.push_back(bench::nowMs() - t0);
            cycles = r.cycles.total();
            checksum = 0.0;
            for (float v : r.y)
                checksum += static_cast<double>(v);
        }

        bench::PerfSample s;
        s.tier = tier.name;
        s.rows = a.rows();
        s.cols = a.cols();
        s.nnz = a.nnz();
        s.warmups = tier.warmups;
        s.iterations = static_cast<unsigned>(times_ms.size());
        s.medianMs = bench::medianOf(times_ms);
        s.throughputPerS =
            static_cast<double>(cycles) / (s.medianMs / 1000.0);
        s.cycles = cycles;
        s.checksum = checksum;
        samples.push_back(s);

        std::printf("%-7s %9zu nnz  %8llu cycles  median %7.2f ms  "
                    "%10.3g cycles/s\n",
                    s.tier.c_str(), s.nnz,
                    static_cast<unsigned long long>(s.cycles),
                    s.medianMs, s.throughputPerS);
    }

    bench::writePerfJson(out, "sim", "cycles_per_s", samples);
    std::printf("wrote %s\n", out.c_str());
    return 0;
}
