/**
 * @file
 * Engine implementation.
 */

#include "core/engine.h"

#include "arch/chason_accel.h"
#include "arch/power.h"
#include "arch/serpens_accel.h"
#include "arch/stream_soa.h"
#include "common/logging.h"
#include "sched/crhcs.h"
#include "sched/pe_aware.h"
#include "trace/trace.h"

namespace chason {
namespace core {

Engine::Engine(Kind kind, arch::ArchConfig config)
    : kind_(kind), config_(config)
{
    if (kind_ == Kind::Serpens) {
        // The baseline never migrates; depth 0 documents that in the
        // schedule metadata as well.
        config_.sched.migrationDepth = 0;
        scheduler_ =
            std::make_unique<sched::PeAwareScheduler>(config_.sched);
        accel_ = std::make_unique<arch::SerpensAccelerator>(config_);
    } else {
        if (config_.sched.migrationDepth == 0)
            config_.sched.migrationDepth = 1;
        scheduler_ = std::make_unique<sched::CrhcsScheduler>(config_.sched);
        accel_ = std::make_unique<arch::ChasonAccelerator>(config_);
    }
}

sched::Schedule
Engine::schedule(const sparse::CsrMatrix &a) const
{
    trace::HostSpan span("schedule:" + scheduler_->name());
    return scheduler_->schedule(a);
}

SpmvReport
Engine::run(const sparse::CsrMatrix &a, const std::vector<float> &x,
            const std::string &dataset, std::vector<float> *y_out,
            const arch::SpmvParams &params) const
{
    const sched::Schedule sch = schedule(a);
    return runScheduled(sch, a, x, dataset, y_out, params);
}

SpmvReport
Engine::runScheduled(const sched::Schedule &schedule,
                     const sparse::CsrMatrix &a,
                     const std::vector<float> &x,
                     const std::string &dataset,
                     std::vector<float> *y_out,
                     const arch::SpmvParams &params) const
{
    const arch::StreamPlan plan = [&] {
        trace::HostSpan span("plan:" + schedule.scheduler);
        return arch::StreamPlan(schedule, accel_->migrationDepth());
    }();
    return runScheduled(schedule, sched::analyze(schedule), plan, a, x,
                        dataset, y_out, params);
}

SpmvReport
Engine::runScheduled(const sched::Schedule &schedule,
                     const sched::ScheduleStats &stats,
                     const arch::StreamPlan &plan,
                     const sparse::CsrMatrix &a,
                     const std::vector<float> &x,
                     const std::string &dataset,
                     std::vector<float> *y_out,
                     const arch::SpmvParams &params) const
{
    arch::RunResult run;
    {
        trace::HostSpan span("simulate:" + accel_->name() +
                             (dataset.empty() ? "" : ":" + dataset));
        run = accel_->runPlanned(schedule, plan, x, params);
    }

    SpmvReport report;
    report.accelerator = accel_->name();
    report.dataset = dataset;
    report.rows = a.rows();
    report.cols = a.cols();
    report.nnz = a.nnz();
    report.frequencyMhz = accel_->frequencyMhz();
    report.cycles = run.cycles.total();
    report.cycleBreakdown = run.cycles;
    report.latencyMs = run.latencyUs / 1e3;

    // Eq. 5: throughput with K = columns of A (size of x).
    const double flops = 2.0 *
        (static_cast<double>(a.nnz()) + static_cast<double>(a.cols()));
    report.gflops = flops / (run.latencyUs * 1e3); // us -> ns

    report.powerW = kind_ == Kind::Chason
        ? arch::chasonMeasuredPowerW()
        : arch::serpensMeasuredPowerW();
    report.energyEfficiency = report.gflops / report.powerW;

    // Eq. 7 as reported in Table 3: throughput per peak platform
    // bandwidth expressed in TB/s (460 GB/s -> 0.46).
    const double peak_tbps = config_.hbm.peakBandwidthGBps() / 1e3;
    report.bandwidthEfficiency = report.gflops / peak_tbps;

    report.underutilizationPercent = stats.underutilizationPercent;
    report.perPegUnderutilization = stats.perPegUnderutilization;
    report.matrixStreamBytes = stats.matrixBytes;
    report.totalBytes = run.traffic.totalBytes();

    // Functional verification against the double-precision reference,
    // honouring the alpha/beta kernel contract.
    std::vector<double> reference = sparse::spmvReference(a, x);
    for (std::size_t i = 0; i < reference.size(); ++i) {
        reference[i] *= params.alpha;
        if (params.beta != 0.0f)
            reference[i] += static_cast<double>(params.beta) *
                (*params.yIn)[i];
    }
    report.functionalError = sparse::maxRelativeError(run.y, reference);

    if (y_out)
        *y_out = std::move(run.y);
    return report;
}

Comparison
compare(const sparse::CsrMatrix &a, const std::vector<float> &x,
        const std::string &dataset, const arch::ArchConfig &config)
{
    Comparison cmp;
    cmp.chason = Engine(Engine::Kind::Chason, config).run(a, x, dataset);
    cmp.serpens = Engine(Engine::Kind::Serpens, config).run(a, x, dataset);
    return cmp;
}

} // namespace core
} // namespace chason
