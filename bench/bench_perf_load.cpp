/**
 * @file
 * Perf trajectory, warm-start leg: cold CrHCS scheduling vs serving
 * the same schedule from a CHSA artifact, emitted as BENCH_load.json.
 *
 * This is the number the two-tier ScheduleCache exists for: a process
 * that already scheduled a matrix once should never pay CrHCS again.
 * Per tier the bench measures (a) cold scheduling end to end and (b)
 * the full artifact serving path — open/map, header + section
 * validation, the payload digest, and the zero-copy
 * materialization — and reports the speedup as throughput_per_s (unit
 * "speedup_vs_cold", so the ratio itself is what chason_perf_gate
 * bands; cold_median_ms rides along for context). The digest touches
 * every payload page, so the measured load includes the page faults a
 * consumer would otherwise pay.
 *
 * The checksum is the schedule's exact artifact byte count, asserted
 * identical between the cold and loaded schedules — the two paths must
 * describe bit-identical schedules (tests/core/test_artifact_cache.cc
 * proves the simulation side).
 *
 * Both legs run on the calling thread, as they do behind a
 * core::ScheduleCache in Engine, BatchEngine and the daemon: a miss
 * schedules with no pool and a disk hit hashes the payload serially.
 * The ratio is therefore the one a served request sees.
 *
 * Knobs: CHASON_PERF_TIERS picks tiers, --out changes the report path.
 */

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/logging.h"
#include "perf_emit.h"
#include "sched/artifact.h"
#include "sched/crhcs.h"
#include "sched/schedule.h"
#include "sparse/generators.h"
#include "support.h"

using namespace chason;

int
main(int argc, char **argv)
{
    std::string out = "BENCH_load.json";
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0)
            out = argv[i + 1];
    }

    bench::printHeader(
        "Perf trajectory: artifact warm-start vs cold scheduling",
        "docs/PERFORMANCE.md (BENCH_load.json)");

    const std::string dir = "bench_load_artifacts.tmp";
    std::filesystem::create_directories(dir);

    const sched::SchedConfig config;
    const sched::CrhcsScheduler scheduler(config);

    std::vector<bench::PerfSample> samples;
    for (const bench::PerfTier &tier : bench::selectedPerfTiers()) {
        Rng rng = bench::tierRng(tier.name);
        const sparse::CsrMatrix a =
            sparse::rmat(tier.scale, tier.nnzTarget, rng);

        // Cold leg: CrHCS end to end, steady state.
        for (unsigned w = 0; w < tier.warmups; ++w)
            (void)scheduler.schedule(a);
        std::vector<double> cold_ms;
        std::uint64_t cold_bytes = 0;
        sched::Schedule cold;
        while (bench::keepTiming(tier, cold_ms)) {
            const double t0 = bench::nowMs();
            cold = scheduler.schedule(a);
            cold_ms.push_back(bench::nowMs() - t0);
            cold_bytes = sched::scheduleArtifactBytes(cold);
        }

        // Persist once, the way the cache's write-behind would.
        const sched::ArtifactKey key{0x10ad, tier.scale, 0xc4c5e};
        const std::string path =
            dir + "/" + sched::artifactFileName(key);
        sched::ArtifactError error;
        chason_assert(
            sched::writeArtifactFile(cold, key, path, &error),
            "persist failed: %s", error.detail.c_str());

        // Warm leg: the complete admission + zero-copy load path.
        std::vector<double> load_ms;
        std::uint64_t loaded_bytes = 0;
        for (unsigned w = 0; w < tier.warmups; ++w) {
            const sched::ArtifactReader reader =
                sched::ArtifactReader::open(path, &error);
            chason_assert(reader.ok() && reader.payloadIntact(&error),
                          "warmup load failed: %s",
                          error.detail.c_str());
            (void)reader.load();
        }
        while (bench::keepTiming(tier, load_ms)) {
            const double t0 = bench::nowMs();
            const sched::ArtifactReader reader =
                sched::ArtifactReader::open(path, &error);
            chason_assert(reader.ok(), "open failed: %s",
                          error.detail.c_str());
            chason_assert(reader.payloadIntact(&error),
                          "payload rejected: %s", error.detail.c_str());
            const sched::Schedule loaded = reader.load();
            load_ms.push_back(bench::nowMs() - t0);
            loaded_bytes = sched::scheduleArtifactBytes(loaded);
        }
        chason_assert(loaded_bytes == cold_bytes,
                      "loaded schedule differs from the cold one");

        bench::PerfSample s;
        s.tier = tier.name;
        s.rows = a.rows();
        s.cols = a.cols();
        s.nnz = a.nnz();
        s.warmups = tier.warmups;
        s.iterations = static_cast<unsigned>(load_ms.size());
        s.medianMs = bench::medianOf(load_ms);
        s.coldMedianMs = bench::medianOf(cold_ms);
        s.throughputPerS =
            s.medianMs > 0.0 ? s.coldMedianMs / s.medianMs : 0.0;
        s.checksum = static_cast<double>(loaded_bytes);
        samples.push_back(s);

        std::printf("%-7s cold %8.2f ms  load %7.2f ms  %6.1fx "
                    "warm-start\n",
                    s.tier.c_str(), s.coldMedianMs, s.medianMs,
                    s.throughputPerS);
    }

    std::error_code ec;
    std::filesystem::remove_all(dir, ec);

    bench::writePerfJson(out, "load", "speedup_vs_cold", samples);
    std::printf("wrote %s\n", out.c_str());
    return 0;
}
