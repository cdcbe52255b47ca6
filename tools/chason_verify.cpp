/**
 * @file
 * chason_verify — static legality checking for offline schedules.
 *
 * Verifies a Schedule against the architectural invariants (rule
 * catalog in verify/rules.h) without running the cycle simulator, and
 * renders findings as text and/or SARIF 2.1.0 for CI. Four input
 * modes:
 *
 *  - generate: schedule a dataset/.mtx matrix with a chosen scheduler
 *    and verify the result (the scheduler-qualification mode);
 *  - stored schedule (--artifact FILE with --mtx/--dataset): load a
 *    CHSA schedule file through the schedule cache's admission checks,
 *    keyed by the matrix and the --scheduler/--raw/--depth scheduler,
 *    and verify it, completeness against the matrix included. A file
 *    that fails admission is reported and the tool exits 1;
 *  - examples: all three schedulers over a bundle of example matrices
 *    (the run_all.sh CI gate);
 *  - CHSA admission (--artifact FILE... without a matrix): run the
 *    on-disk schedule-artifact admission checks (CHV015-018: magic,
 *    version, structure, checksums) on store files, the same gate the
 *    two-tier ScheduleCache applies before serving; --deep
 *    additionally loads a passing artifact and verifies the schedule
 *    itself.
 *
 * --corrupt injects a chosen defect class before verification, to
 * prove the gate actually fires; --differential additionally runs the
 * cycle simulator and cross-checks its functional result against the
 * double-precision reference, demonstrating that verifier-clean
 * schedules compute correct SpMV results. --save writes the (possibly
 * corrupted) schedule of a generate or stored-schedule run as a CHSA
 * file under the same key.
 *
 * Exit status: 0 clean, 1 error-severity findings (or a differential
 * disagreement), 2 usage error.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "core/chason.h"
#include "verify/artifact_check.h"

namespace {

using namespace chason;

struct Options
{
    std::string mtxPath;    ///< matrix from a .mtx file
    std::string dataset;    ///< matrix from the Table 2 bundle
    std::string scheduler = "crhcs";
    std::string sarifPath;  ///< write SARIF here ("" = none)
    std::string savePath;   ///< store the (possibly corrupted) schedule
    std::string corrupt;    ///< defect class to inject ("" = none)
    std::vector<std::string> artifactPaths; ///< CHSA files to check
    bool deep = false;      ///< also verify the schedule a CHSA carries
    bool examples = false;  ///< verify the bundled example schedules
    bool differential = false;
    bool quiet = false;
    unsigned rawDistance = 0;  ///< 0 = config default
    unsigned migrationDepth = 1;
    std::size_t maxDiags = 8;
};

/** One (matrix, schedule) pair to verify. */
struct VerifyJob
{
    std::string name; ///< artifact URI for reports
    sparse::CsrMatrix matrix;
    sched::Schedule schedule;
};

int
usage()
{
    std::fprintf(
        stderr,
        "usage: chason_verify [--mtx FILE | --dataset TAG]\n"
        "                     [--scheduler crhcs|pe-aware|row-based]\n"
        "                     [--artifact FILE]... [--deep]\n"
        "                     [--examples] [--differential]\n"
        "                     [--corrupt raw|duplicate|drop|value]\n"
        "                     [--sarif FILE] [--save FILE]\n"
        "                     [--raw D] [--depth D]\n"
        "                     [--max-diags N] [--quiet]\n");
    return 2;
}

std::unique_ptr<sched::Scheduler>
makeScheduler(const std::string &name, const sched::SchedConfig &config)
{
    if (name == "crhcs")
        return std::make_unique<sched::CrhcsScheduler>(config);
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

/** The example bundle: small Table 2 matrices the smoke tests use. */
std::vector<std::string>
exampleTags()
{
    return {"CM", "DY", "WI"};
}

/**
 * Differential check: simulate the schedule and compare against the
 * double-precision reference. Returns true when the functional result
 * agrees within float tolerance.
 */
bool
simulationAgrees(const VerifyJob &job)
{
    const arch::ArchConfig cfg = [&] {
        arch::ArchConfig c;
        c.sched = job.schedule.config;
        return c;
    }();
    const bool migrated = job.schedule.config.migrationDepth > 0;
    std::unique_ptr<arch::Accelerator> accel;
    if (migrated)
        accel = std::make_unique<arch::ChasonAccelerator>(cfg);
    else
        accel = std::make_unique<arch::SerpensAccelerator>(cfg);

    Rng rng(0xD1FF);
    const std::vector<float> x =
        sparse::randomVector(job.matrix.cols(), rng);
    const arch::RunResult run = accel->run(job.schedule, x);
    const std::vector<double> ref = sparse::spmvReference(job.matrix, x);

    for (std::size_t r = 0; r < ref.size(); ++r) {
        const double got = run.y[r];
        const double want = ref[r];
        const double tol =
            1e-4 * std::max(1.0, std::abs(want)); // float accumulation
        if (std::abs(got - want) > tol)
            return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--mtx" && i + 1 < argc) {
            opt.mtxPath = argv[++i];
        } else if (arg == "--dataset" && i + 1 < argc) {
            opt.dataset = argv[++i];
        } else if (arg == "--scheduler" && i + 1 < argc) {
            opt.scheduler = argv[++i];
        } else if (arg == "--sarif" && i + 1 < argc) {
            opt.sarifPath = argv[++i];
        } else if (arg == "--save" && i + 1 < argc) {
            opt.savePath = argv[++i];
        } else if (arg == "--corrupt" && i + 1 < argc) {
            opt.corrupt = argv[++i];
        } else if (arg == "--artifact" && i + 1 < argc) {
            opt.artifactPaths.push_back(argv[++i]);
        } else if (arg == "--deep") {
            opt.deep = true;
        } else if (arg == "--examples") {
            opt.examples = true;
        } else if (arg == "--differential") {
            opt.differential = true;
        } else if (arg == "--quiet") {
            opt.quiet = true;
        } else if (arg == "--raw" && i + 1 < argc) {
            opt.rawDistance =
                static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (arg == "--depth" && i + 1 < argc) {
            opt.migrationDepth =
                static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (arg == "--max-diags" && i + 1 < argc) {
            opt.maxDiags =
                static_cast<std::size_t>(std::atoi(argv[++i]));
        } else {
            return usage();
        }
    }
    if (opt.examples &&
        (!opt.artifactPaths.empty() || !opt.mtxPath.empty())) {
        return usage();
    }

    // CHSA admission mode: self-contained, no matrix or scheduler.
    if (!opt.artifactPaths.empty() && opt.mtxPath.empty() &&
        opt.dataset.empty()) {
        if (!opt.corrupt.empty())
            return usage();
        verify::SarifLog sarif;
        std::size_t total_errors = 0;
        std::size_t total_warnings = 0;
        for (const std::string &path : opt.artifactPaths) {
            const verify::VerifyResult result =
                verify::verifyArtifact(path, opt.deep);
            sarif.addResult(result, path);
            total_errors += result.errors;
            total_warnings += result.warnings;
            if (!opt.quiet) {
                for (const verify::Diagnostic &d : result.diagnostics)
                    std::printf("%s: %s\n", path.c_str(),
                                verify::toString(d).c_str());
            }
            std::printf("%s: %s\n", path.c_str(),
                        result.summary().c_str());
        }
        if (!opt.sarifPath.empty()) {
            std::ofstream out(opt.sarifPath);
            if (!out)
                chason_fatal("cannot create '%s'", opt.sarifPath.c_str());
            out << sarif.toJson();
        }
        std::printf("chason_verify: %zu artifacts, %zu errors, %zu "
                    "warnings\n",
                    opt.artifactPaths.size(), total_errors,
                    total_warnings);
        return total_errors > 0 ? 1 : 0;
    }
    if (opt.artifactPaths.size() > 1)
        return usage(); // a stored schedule is verified one at a time

    sched::SchedConfig base;
    if (opt.rawDistance != 0)
        base.rawDistance = opt.rawDistance;
    base.migrationDepth = opt.migrationDepth;

    // Assemble the verification jobs.
    std::vector<VerifyJob> jobs;
    std::unique_ptr<sched::Scheduler> scheduler;
    if (opt.examples) {
        for (const std::string &tag : exampleTags()) {
            const sparse::CsrMatrix a =
                sparse::table2ByTag(tag).generate();
            for (const char *name : {"row-based", "pe-aware", "crhcs"}) {
                VerifyJob job;
                job.name = "schedules/" + tag + "." + name + ".sched";
                job.matrix = a;
                job.schedule =
                    makeScheduler(name, base)->schedule(a);
                jobs.push_back(std::move(job));
            }
        }
    } else {
        scheduler = makeScheduler(opt.scheduler, base);
        if (scheduler == nullptr)
            return usage();
        const std::string tag =
            opt.dataset.empty() ? "CM" : opt.dataset;
        VerifyJob job;
        if (!opt.mtxPath.empty()) {
            std::string error;
            std::optional<sparse::CooMatrix> coo =
                sparse::readMatrixMarketFile(opt.mtxPath, error);
            if (!coo)
                chason_fatal("%s", error.c_str());
            job.matrix = coo->toCsr();
        } else {
            job.matrix = sparse::table2ByTag(tag).generate();
        }
        if (opt.artifactPaths.empty()) {
            job.name = "schedules/" +
                (!opt.mtxPath.empty() ? opt.mtxPath : tag) + "." +
                opt.scheduler + ".sched";
            job.schedule = scheduler->schedule(job.matrix);
        } else {
            job.name = opt.artifactPaths.front();
            std::string why;
            std::optional<sched::Schedule> loaded = core::loadArtifact(
                job.name, core::scheduleKey(*scheduler, job.matrix), why);
            if (!loaded) {
                std::fprintf(stderr, "%s: %s\n", job.name.c_str(),
                             why.c_str());
                return 1;
            }
            job.schedule = std::move(*loaded);
        }
        jobs.push_back(std::move(job));
    }

    // Optional corruption injection (negative-testing the gate).
    verify::Corruption corruption = verify::Corruption::kValueTamper;
    if (!opt.corrupt.empty()) {
        if (!verify::parseCorruption(opt.corrupt.c_str(), &corruption))
            return usage();
        for (VerifyJob &job : jobs) {
            if (!verify::corruptSchedule(job.schedule, corruption)) {
                chason_fatal("no opportunity to inject '%s' into %s",
                             verify::corruptionName(corruption),
                             job.name.c_str());
            }
        }
    }

    if (!opt.savePath.empty()) {
        if (scheduler == nullptr)
            return usage(); // saving needs exactly one schedule
        const VerifyJob &job = jobs.front();
        sched::ArtifactError error;
        if (!sched::writeArtifactFile(
                job.schedule,
                core::artifactKey(
                    core::scheduleKey(*scheduler, job.matrix)),
                opt.savePath, &error)) {
            std::fprintf(stderr, "%s: %s (%s)\n", opt.savePath.c_str(),
                         sched::artifactStatusName(error.status),
                         error.detail.c_str());
            return 1;
        }
    }

    const arch::ArchConfig archDefaults;
    verify::SarifLog sarif;
    std::size_t total_errors = 0;
    std::size_t total_warnings = 0;
    bool differential_disagrees = false;

    for (const VerifyJob &job : jobs) {
        verify::VerifyOptions vopt;
        vopt.matrix = &job.matrix;
        vopt.maxDiagnosticsPerRule = opt.maxDiags;
        vopt.capacityRowsPerLane = [&] {
            arch::ArchConfig c = archDefaults;
            c.sched = job.schedule.config;
            return c.capacityRowsPerLane();
        }();

        const verify::VerifyResult result =
            verify::verifySchedule(job.schedule, vopt);
        sarif.addResult(result, job.name);
        total_errors += result.errors;
        total_warnings += result.warnings;

        if (!opt.quiet) {
            for (const verify::Diagnostic &d : result.diagnostics)
                std::printf("%s: %s\n", job.name.c_str(),
                            verify::toString(d).c_str());
        }
        std::printf("%s: %s\n", job.name.c_str(),
                    result.summary().c_str());

        if (opt.differential) {
            const bool agrees = simulationAgrees(job);
            const bool verdictMatch = agrees == result.clean();
            std::printf("%s: differential: verifier=%s simulator=%s "
                        "(%s)\n",
                        job.name.c_str(),
                        result.clean() ? "clean" : "illegal",
                        agrees ? "correct" : "wrong",
                        verdictMatch ? "consistent" : "DISAGREE");
            // A clean schedule must simulate correctly; an illegal one
            // may or may not corrupt the numerics (e.g. a pure RAW
            // timing hazard computes the right sum), so only the
            // clean->wrong direction is a disagreement.
            if (result.clean() && !agrees)
                differential_disagrees = true;
        }
    }

    if (!opt.sarifPath.empty()) {
        std::ofstream out(opt.sarifPath);
        if (!out)
            chason_fatal("cannot create '%s'", opt.sarifPath.c_str());
        out << sarif.toJson();
    }

    std::printf("chason_verify: %zu artifacts, %zu errors, %zu "
                "warnings\n",
                jobs.size(), total_errors, total_warnings);
    if (total_errors > 0 || differential_disagrees)
        return 1;
    return 0;
}
