/**
 * @file
 * Perf trajectory, scheduling leg: CrHCS throughput over the R-MAT
 * ladder, emitted as BENCH_sched.json.
 *
 * Measures CrhcsScheduler::schedule end to end (PE-aware construction +
 * beat-synchronous migration + placement) in steady state. Throughput
 * is nnz scheduled per second; the checksum is the schedule's exact
 * artifact byte count, so an A/B pair can prove both sides scheduled
 * the identical workload into the identical schedule.
 *
 * The bench owns one core::ThreadPool and hands it to the scheduler,
 * so the timed path is the parallel (pass, window) fan-out a standalone
 * caller gets; engine and serving callers schedule on one thread.
 *
 * Knobs: CHASON_PERF_TIERS picks tiers, CHASON_JOBS sizes the
 * scheduling pool (default: one worker per hardware thread), --out
 * changes the report path.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/thread_pool.h"
#include "perf_emit.h"
#include "sched/crhcs.h"
#include "sched/schedule.h"
#include "sparse/generators.h"
#include "support.h"

using namespace chason;

int
main(int argc, char **argv)
{
    std::string out = "BENCH_sched.json";
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0)
            out = argv[i + 1];
    }

    bench::printHeader("Perf trajectory: CrHCS scheduling throughput",
                       "docs/PERFORMANCE.md (BENCH_sched.json)");

    const sched::SchedConfig config;
    core::ThreadPool pool(bench::jobCount());
    const sched::CrhcsScheduler scheduler(
        config, sched::MigrationStrategy::BeatSynchronous, &pool);

    std::vector<bench::PerfSample> samples;
    for (const bench::PerfTier &tier : bench::selectedPerfTiers()) {
        Rng rng = bench::tierRng(tier.name);
        const sparse::CsrMatrix a =
            sparse::rmat(tier.scale, tier.nnzTarget, rng);

        for (unsigned w = 0; w < tier.warmups; ++w)
            (void)scheduler.schedule(a);

        std::vector<double> times_ms;
        std::uint64_t artifact = 0;
        while (bench::keepTiming(tier, times_ms)) {
            const double t0 = bench::nowMs();
            const sched::Schedule s = scheduler.schedule(a);
            times_ms.push_back(bench::nowMs() - t0);
            artifact = sched::scheduleArtifactBytes(s);
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
            static_cast<double>(a.nnz()) / (s.medianMs / 1000.0);
        s.checksum = static_cast<double>(artifact);
        samples.push_back(s);

        std::printf("%-7s %9zu nnz  median %8.2f ms  %10.3g nnz/s\n",
                    s.tier.c_str(), s.nnz, s.medianMs, s.throughputPerS);
    }

    bench::writePerfJson(out, "sched", "nnz_per_s", samples);
    std::printf("wrote %s\n", out.c_str());
    return 0;
}
