/**
 * @file
 * chason_pack — produce, inspect and corrupt CHSA schedule artifacts.
 *
 * The operational face of the on-disk schedule store (sched/artifact.h):
 *
 *   pack     schedule a matrix and write the CHSA artifact under its
 *            canonical cache name (or an explicit --out path), exactly
 *            as the two-tier ScheduleCache would persist it;
 *   inspect  print the validated header: key, scheduler, shape,
 *            phases, section table with checksums;
 *   verify   run the full admission chain including the payload
 *            digest; exit 1 on any defect (CI-friendly);
 *   flip     XOR one byte at a given offset — deterministic corruption
 *            for negative-testing the admission gate without python.
 *
 * Exit status: 0 ok, 1 verification/flip failure, 2 usage error.
 */

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "common/logging.h"
#include "core/chason.h"
#include "core/schedule_cache.h"
#include "core/thread_pool.h"
#include "sched/artifact.h"

namespace {

using namespace chason;

int
usage()
{
    std::fprintf(
        stderr,
        "usage: chason_pack pack (--dataset TAG | --mtx FILE)\n"
        "                        [--scheduler crhcs|pe-aware|row-based]\n"
        "                        [--raw D] [--depth D]\n"
        "                        (--out FILE | --dir DIR)\n"
        "       chason_pack inspect FILE\n"
        "       chason_pack verify FILE\n"
        "       chason_pack flip --at OFFSET FILE [--xor BYTE]\n");
    return 2;
}

std::unique_ptr<sched::Scheduler>
makeScheduler(const std::string &name, const sched::SchedConfig &config,
              core::ThreadPool *pool)
{
    if (name == "crhcs")
        return std::make_unique<sched::CrhcsScheduler>(
            config, sched::MigrationStrategy::BeatSynchronous, pool);
    if (name == "pe-aware" || name == "pe") {
        sched::SchedConfig cfg = config;
        cfg.migrationDepth = 0;
        return std::make_unique<sched::PeAwareScheduler>(cfg);
    }
    if (name == "row-based" || name == "row") {
        sched::SchedConfig cfg = config;
        cfg.migrationDepth = 0;
        return std::make_unique<sched::RowBasedScheduler>(cfg);
    }
    return nullptr;
}

int
runPack(int argc, char **argv)
{
    std::string dataset, mtx, out, dir;
    std::string scheduler_name = "crhcs";
    unsigned raw = 0, depth = 1;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--dataset" && i + 1 < argc)
            dataset = argv[++i];
        else if (arg == "--mtx" && i + 1 < argc)
            mtx = argv[++i];
        else if (arg == "--scheduler" && i + 1 < argc)
            scheduler_name = argv[++i];
        else if (arg == "--raw" && i + 1 < argc)
            raw = static_cast<unsigned>(std::atoi(argv[++i]));
        else if (arg == "--depth" && i + 1 < argc)
            depth = static_cast<unsigned>(std::atoi(argv[++i]));
        else if (arg == "--out" && i + 1 < argc)
            out = argv[++i];
        else if (arg == "--dir" && i + 1 < argc)
            dir = argv[++i];
        else
            return usage();
    }
    if ((dataset.empty() == mtx.empty()) ||
        (out.empty() && dir.empty()))
        return usage();

    sched::SchedConfig base;
    if (raw != 0)
        base.rawDistance = raw;
    base.migrationDepth = depth;
    // Packing is one standalone schedule, so CrHCS fans out over a
    // pool owned here, one worker per hardware thread.
    core::ThreadPool pool;
    const auto scheduler = makeScheduler(scheduler_name, base, &pool);
    if (scheduler == nullptr)
        return usage();

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
    const sched::Schedule schedule = scheduler->schedule(a);

    // The same identity the cache files artifacts under, so a packed
    // file is immediately servable from --artifact-dir.
    const sched::ArtifactKey akey =
        core::artifactKey(core::scheduleKey(*scheduler, a));
    const std::string path =
        !out.empty() ? out : dir + "/" + sched::artifactFileName(akey);

    sched::ArtifactError error;
    if (!sched::writeArtifactFile(schedule, akey, path, &error)) {
        chason_fatal("pack failed: %s (%s)",
                     sched::artifactStatusName(error.status),
                     error.detail.c_str());
    }
    std::printf("packed %s: %s, %u x %u, %zu nnz, %zu phases\n",
                path.c_str(), schedule.scheduler.c_str(),
                schedule.rows, schedule.cols, schedule.nnz,
                schedule.phases.size());
    return 0;
}

const char *
sectionName(std::uint32_t kind)
{
    switch (static_cast<sched::ArtifactSection>(kind)) {
    case sched::ArtifactSection::kMeta:
        return "meta";
    case sched::ArtifactSection::kPhases:
        return "phases";
    case sched::ArtifactSection::kBeats:
        return "beats";
    }
    return "?";
}

int
runInspect(const std::string &path)
{
    sched::ArtifactError error;
    const sched::ArtifactReader reader =
        sched::ArtifactReader::open(path, &error);
    if (!reader.ok()) {
        std::fprintf(stderr, "%s: %s (%s)\n", path.c_str(),
                     sched::artifactStatusName(error.status),
                     error.detail.c_str());
        return 1;
    }
    const sched::ArtifactInfo &info = reader.info();
    std::printf("%s: CHSA v%u\n", path.c_str(), sched::kArtifactVersion);
    std::printf("  key        %016" PRIx64 "%016" PRIx64 "-%016" PRIx64
                "\n",
                info.key.lo, info.key.hi, info.key.scheduler);
    std::printf("  scheduler  %s\n", info.scheduler.c_str());
    std::printf("  matrix     %u x %u, %" PRIu64 " nnz\n", info.rows,
                info.cols, info.nnz);
    std::printf("  phases     %u\n", info.phaseCount);
    std::printf("  payload    %" PRIu64 " bytes (%" PRIu64 " beats)\n",
                info.payloadBytes,
                info.payloadBytes / sizeof(sched::Beat));
    std::printf("  file       %" PRIu64 " bytes\n", info.fileBytes);
    for (const sched::ArtifactSectionEntry &s : info.sections) {
        std::printf("  section    %-6s offset %" PRIu64 " bytes %" PRIu64
                    " checksum %016" PRIx64 "\n",
                    sectionName(s.kind), s.offset, s.bytes, s.checksum);
    }
    return 0;
}

int
runVerify(const std::string &path)
{
    sched::ArtifactError error;
    const sched::ArtifactReader reader =
        sched::ArtifactReader::open(path, &error);
    if (!reader.ok() || !reader.payloadIntact(&error)) {
        std::fprintf(stderr, "%s: %s (%s)\n", path.c_str(),
                     sched::artifactStatusName(error.status),
                     error.detail.c_str());
        return 1;
    }
    std::printf("%s: ok (%u phases, %" PRIu64 " payload bytes)\n",
                path.c_str(), reader.info().phaseCount,
                reader.info().payloadBytes);
    return 0;
}

int
runFlip(const std::string &path, long long at, unsigned mask)
{
    std::fstream file(path,
                      std::ios::binary | std::ios::in | std::ios::out);
    if (!file) {
        std::fprintf(stderr, "cannot open '%s'\n", path.c_str());
        return 1;
    }
    file.seekg(0, std::ios::end);
    const long long size = file.tellg();
    if (at < 0 || at >= size) {
        std::fprintf(stderr, "offset %lld outside file of %lld bytes\n",
                     at, size);
        return 1;
    }
    file.seekg(at);
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ static_cast<char>(mask));
    file.seekp(at);
    file.write(&byte, 1);
    file.flush();
    if (!file) {
        std::fprintf(stderr, "flip failed for '%s'\n", path.c_str());
        return 1;
    }
    std::printf("flipped byte %lld of %s (xor 0x%02x)\n", at,
                path.c_str(), mask);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    if (cmd == "pack")
        return runPack(argc - 2, argv + 2);

    // The remaining subcommands take one FILE plus options.
    std::string path;
    long long at = -1;
    unsigned mask = 0xff;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--at" && i + 1 < argc)
            at = std::atoll(argv[++i]);
        else if (arg == "--xor" && i + 1 < argc)
            mask = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 0));
        else if (path.empty() && arg.rfind("--", 0) != 0)
            path = arg;
        else
            return usage();
    }
    if (path.empty())
        return usage();
    if (cmd == "inspect")
        return runInspect(path);
    if (cmd == "verify")
        return runVerify(path);
    if (cmd == "flip")
        return at >= 0 ? runFlip(path, at, mask & 0xff) : usage();
    return usage();
}
