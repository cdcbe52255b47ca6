/**
 * @file
 * The Chasoň public API.
 *
 * Engine bundles a scheduler and an accelerator datapath behind one
 * call: schedule the matrix offline (as the paper does in
 * preprocessing), simulate the streaming execution, and return a report
 * with the paper's metrics — latency, throughput (Eq. 5), energy
 * efficiency (Eq. 6), bandwidth efficiency (Eq. 7) and PE
 * underutilization (Eq. 4).
 *
 * Typical use:
 * @code
 *   auto a = chason::sparse::mycielskian(12);
 *   auto x = chason::sparse::randomVector(a.cols(), rng);
 *   chason::core::Engine engine(chason::core::Engine::Kind::Chason);
 *   auto report = engine.run(a, x);
 * @endcode
 */

#ifndef CHASON_CORE_ENGINE_H_
#define CHASON_CORE_ENGINE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arch/accelerator.h"
#include "sched/analyzer.h"
#include "sched/scheduler.h"
#include "sparse/formats.h"

namespace chason {
namespace core {

/**
 * Everything the evaluation section reports about one SpMV run.
 *
 * Units: `cycles` counts *kernel clock cycles* at `frequencyMhz`;
 * `latencyMs` is wall milliseconds derived from them. Throughput and
 * efficiency fields follow the paper's Eqs. 5-7.
 */
struct SpmvReport
{
    std::string accelerator; ///< "chason" or "serpens"
    std::string dataset;     ///< caller-provided label

    std::uint32_t rows = 0;
    std::uint32_t cols = 0;
    std::size_t nnz = 0;

    double frequencyMhz = 0.0;
    std::uint64_t cycles = 0; ///< kernel cycles at frequencyMhz
    arch::CycleBreakdown cycleBreakdown;

    double latencyMs = 0.0; ///< wall milliseconds (cycles / clock)
    double gflops = 0.0;              ///< Eq. 5
    double powerW = 0.0;              ///< measured wall power
    double energyEfficiency = 0.0;    ///< Eq. 6, GFLOPS/W
    double bandwidthEfficiency = 0.0; ///< Eq. 7, GFLOPS/(TB/s peak)

    double underutilizationPercent = 0.0; ///< Eq. 4
    std::vector<double> perPegUnderutilization;

    std::uint64_t matrixStreamBytes = 0; ///< sparse-stream traffic
    std::uint64_t totalBytes = 0;        ///< incl. x, y, descriptors

    /** Largest tolerance-violation ratio vs the double reference. */
    double functionalError = 0.0;
};

/**
 * One-stop SpMV engine: scheduler + datapath + metrics.
 *
 * Thread safety: an Engine is immutable after construction and every
 * member function is const, deterministic and reentrant — one Engine
 * (or many, they are cheap) may be used from any number of threads.
 * For batches of runs, prefer core::BatchEngine, which adds a worker
 * pool and a shared schedule cache on top of this class.
 */
class Engine
{
  public:
    /** Which datapath/scheduler pair to run. */
    enum class Kind
    {
        Serpens, ///< PE-aware scheduling on the Serpens datapath
        Chason,  ///< CrHCS on the Chasoň datapath
    };

    explicit Engine(Kind kind, arch::ArchConfig config = {});

    Kind kind() const { return kind_; }
    const arch::ArchConfig &config() const { return config_; }
    const arch::Accelerator &accelerator() const { return *accel_; }
    const sched::Scheduler &scheduler() const { return *scheduler_; }

    /** Offline scheduling only (what the host preprocesses). */
    sched::Schedule schedule(const sparse::CsrMatrix &a) const;

    /**
     * Schedule, simulate, verify against the double-precision reference
     * and report. @p y_out optionally receives the result vector.
     * @p params selects the full kernel contract y = alpha*Ax + beta*y.
     */
    SpmvReport run(const sparse::CsrMatrix &a, const std::vector<float> &x,
                   const std::string &dataset = "",
                   std::vector<float> *y_out = nullptr,
                   const arch::SpmvParams &params = {}) const;

    /**
     * Run a pre-built schedule once (skips re-scheduling): analyzes it
     * for the report's statistics, builds its StreamPlan and calls the
     * overload below.
     */
    SpmvReport runScheduled(const sched::Schedule &schedule,
                            const sparse::CsrMatrix &a,
                            const std::vector<float> &x,
                            const std::string &dataset = "",
                            std::vector<float> *y_out = nullptr,
                            const arch::SpmvParams &params = {}) const;

    /**
     * Run a pre-built schedule by replaying @p plan, built from
     * @p schedule at the datapath's migration depth; @p stats are its
     * sched::analyze() statistics. A caller that runs one schedule
     * repeatedly (a cache entry, an iterative solver) keeps the plan
     * and the statistics and passes them on every call. Every report
     * is built here.
     */
    SpmvReport runScheduled(const sched::Schedule &schedule,
                            const sched::ScheduleStats &stats,
                            const arch::StreamPlan &plan,
                            const sparse::CsrMatrix &a,
                            const std::vector<float> &x,
                            const std::string &dataset = "",
                            std::vector<float> *y_out = nullptr,
                            const arch::SpmvParams &params = {}) const;

  private:
    Kind kind_;
    arch::ArchConfig config_;
    std::unique_ptr<sched::Scheduler> scheduler_;
    std::unique_ptr<arch::Accelerator> accel_;
};

/** Side-by-side Chasoň vs Serpens run on the same input. */
struct Comparison
{
    SpmvReport chason;
    SpmvReport serpens;

    double speedup() const { return serpens.latencyMs / chason.latencyMs; }
    double transferReduction() const
    {
        return static_cast<double>(serpens.matrixStreamBytes) /
            static_cast<double>(chason.matrixStreamBytes);
    }
    double energyGain() const
    {
        return chason.energyEfficiency / serpens.energyEfficiency;
    }
};

/** Run both engines on @p a with the same @p x. */
Comparison compare(const sparse::CsrMatrix &a, const std::vector<float> &x,
                   const std::string &dataset = "",
                   const arch::ArchConfig &config = {});

} // namespace core
} // namespace chason

#endif // CHASON_CORE_ENGINE_H_
