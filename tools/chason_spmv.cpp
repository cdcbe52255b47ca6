/**
 * @file
 * chason_spmv — command-line front end to the library.
 *
 * Runs SpMV on the Chasoň and/or Serpens simulators for a matrix from a
 * Matrix Market file, the Table 2 registry, or a synthetic family, and
 * prints the full report. Can also persist and reuse the offline
 * schedule as a CHSA artifact (sched/artifact.h), keyed like the
 * schedule cache's disk tier, so a saved file also serves from a
 * chason_serve --artifact-dir. A file that fails admission (corrupt,
 * not CHSA, or scheduled for another matrix) is reported and the tool
 * exits 1.
 *
 * Examples:
 *   chason_spmv --dataset MY
 *   chason_spmv --mtx my_matrix.mtx --engine both --cpu
 *   chason_spmv --family zipf --rows 4096 --deg 12 --save-schedule s.chsa
 *   chason_spmv --load-schedule s.chsa --family zipf --rows 4096 --deg 12
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "baselines/cpu_spmv.h"
#include "core/chason.h"

namespace {

using namespace chason;

struct Options
{
    std::string mtx;
    std::string dataset;
    std::string family;
    std::uint32_t rows = 4096;
    std::uint32_t deg = 8;
    std::string engine = "both";
    std::string save_schedule;
    std::string load_schedule;
    bool cpu = false;
    std::uint64_t seed = 1;
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: chason_spmv [--mtx FILE | --dataset TAG | "
                 "--family FAM --rows N --deg D]\n"
                 "                   [--engine chason|serpens|both] "
                 "[--cpu] [--seed S]\n"
                 "                   [--save-schedule FILE] "
                 "[--load-schedule FILE]\n"
                 "families: zipf graph banded arrow er poisson\n"
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
        } else if (arg == "--save-schedule") {
            opt.save_schedule = value();
        } else if (arg == "--load-schedule") {
            opt.load_schedule = value();
        } else if (arg == "--cpu") {
            opt.cpu = true;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else {
            usage();
        }
    }
    return opt;
}

sparse::CsrMatrix
loadMatrix(const Options &opt)
{
    if (!opt.mtx.empty()) {
        std::string error;
        const auto coo = sparse::readMatrixMarketFile(opt.mtx, error);
        if (!coo)
            chason_fatal("%s", error.c_str());
        return coo->toCsr();
    }
    if (!opt.dataset.empty())
        return sparse::table2ByTag(opt.dataset).generate();
    if (!opt.family.empty()) {
        Rng rng(opt.seed);
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
    // Default demo input.
    return sparse::mycielskian(10);
}

void
report(const core::SpmvReport &r)
{
    std::printf("%-8s %10.4f ms  %8.3f GFLOPS  %7.3f GFLOPS/W  "
                "BW-eff %7.3f  underutil %5.1f%%  err %.3f\n",
                r.accelerator.c_str(), r.latencyMs, r.gflops,
                r.energyEfficiency, r.bandwidthEfficiency,
                r.underutilizationPercent, r.functionalError);
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);
    const sparse::CsrMatrix a = loadMatrix(opt);
    std::printf("matrix: %s (max row %zu, empty rows %u)\n",
                a.describe().c_str(), a.maxRowNnz(), a.emptyRows());

    Rng rng(opt.seed ^ 0xABCD);
    const std::vector<float> x = sparse::randomVector(a.cols(), rng);

    const bool run_chason = opt.engine == "chason" || opt.engine == "both";
    const bool run_serpens =
        opt.engine == "serpens" || opt.engine == "both";
    if (!run_chason && !run_serpens)
        usage();

    std::optional<core::SpmvReport> chason_report, serpens_report;
    if (run_chason) {
        core::Engine engine(core::Engine::Kind::Chason);
        const core::ScheduleKey key =
            opt.load_schedule.empty() && opt.save_schedule.empty()
            ? core::ScheduleKey{}
            : core::scheduleKey(engine.scheduler(), a);
        std::optional<sched::Schedule> sch;
        if (opt.load_schedule.empty()) {
            sch = engine.schedule(a);
        } else {
            std::string why;
            sch = core::loadArtifact(opt.load_schedule, key, why);
            if (!sch) {
                std::fprintf(stderr, "%s: %s\n",
                             opt.load_schedule.c_str(), why.c_str());
                return 1;
            }
        }
        if (!opt.save_schedule.empty()) {
            sched::ArtifactError error;
            if (!sched::writeArtifactFile(*sch, core::artifactKey(key),
                                          opt.save_schedule, &error)) {
                std::fprintf(stderr, "%s: %s (%s)\n",
                             opt.save_schedule.c_str(),
                             sched::artifactStatusName(error.status),
                             error.detail.c_str());
                return 1;
            }
            std::printf("schedule artifact written to %s (%.2f MB "
                        "HBM-resident)\n",
                        opt.save_schedule.c_str(),
                        static_cast<double>(
                            sched::scheduleArtifactBytes(*sch)) /
                            1e6);
        }
        chason_report = engine.runScheduled(*sch, a, x, "cli");
        report(*chason_report);
    }
    if (run_serpens) {
        serpens_report =
            core::Engine(core::Engine::Kind::Serpens).run(a, x, "cli");
        report(*serpens_report);
    }
    if (chason_report && serpens_report) {
        std::printf("chason vs serpens: %.2fx faster, %.2fx less matrix "
                    "traffic\n",
                    serpens_report->latencyMs / chason_report->latencyMs,
                    static_cast<double>(
                        serpens_report->matrixStreamBytes) /
                        static_cast<double>(
                            chason_report->matrixStreamBytes));
    }

    if (opt.cpu) {
        const baselines::CpuSpmv cpu;
        const double us = cpu.measureLatencyUs(a, x);
        const double gflops = 2.0 *
            (static_cast<double>(a.nnz()) + a.cols()) / (us * 1e3);
        std::printf("%-8s %10.4f ms  %8.3f GFLOPS  (measured on this "
                    "host, %u threads)\n",
                    "cpu", us / 1e3, gflops, cpu.threads());
    }
    return 0;
}
