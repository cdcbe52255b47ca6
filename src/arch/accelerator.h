/**
 * @file
 * Accelerator base: configuration, run results, and the shared streaming
 * simulation both Serpens and Chasoň build on.
 */

#ifndef CHASON_ARCH_ACCELERATOR_H_
#define CHASON_ARCH_ACCELERATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "arch/peg.h"
#include "arch/timing.h"
#include "hbm/hbm.h"
#include "sched/config.h"
#include "sched/schedule.h"

namespace chason {
namespace arch {

class StreamPlan; // arch/stream_soa.h

/** Full architecture configuration. */
struct ArchConfig
{
    sched::SchedConfig sched;
    hbm::HbmConfig hbm = hbm::HbmConfig::alveoU55c();
    TimingConfig timing;

    /**
     * Physical URAMs per ScUG (Section 4.5). 8 keeps one URAM per
     * logical bank; the shipped design folds to 4 (two banks per URAM),
     * halving the rows a pass can cover but not the performance.
     */
    unsigned scugSize = 4;

    /** Dense-vector x channel (one beyond the matrix channels). */
    unsigned xChannel() const { return sched.channels; }

    /** Result y channel. */
    unsigned yChannel() const { return sched.channels + 1; }

    /** Instruction/descriptor channel. */
    unsigned instChannel() const { return sched.channels + 2; }

    /** Channels in use (19 in the paper's configuration). */
    unsigned usedChannels() const { return sched.channels + 3; }

    /** Rows one pass may cover given the physical URAM capacity. */
    std::uint32_t capacityRowsPerLane() const;

    /** Validate and panic on inconsistencies. */
    void validate() const;
};

/**
 * Kernel-call parameters: the full contract is y = alpha * A x +
 * beta * y_in (the Serpens kernel family's interface; Eq. 8 uses the
 * same scalars for SpMM). The default (alpha 1, beta 0) is plain SpMV.
 */
struct SpmvParams
{
    float alpha = 1.0f;
    float beta = 0.0f;

    /** Previous y; required when beta != 0, ignored otherwise. */
    const std::vector<float> *yIn = nullptr;
};

/** Outcome of simulating one SpMV invocation. */
struct RunResult
{
    /** The computed result vector (length = matrix rows). */
    std::vector<float> y;

    /** Cycle breakdown at the accelerator's clock. */
    CycleBreakdown cycles;

    /** Per-channel transfer accounting. */
    hbm::HbmDevice traffic;

    /** Latency in microseconds at the configured clock. */
    double latencyUs = 0.0;

    /** Memory stall factor that was applied. */
    double memStallFactor = 1.0;

    RunResult() : traffic(hbm::HbmConfig::alveoU55c()) {}
};

/** Abstract streaming SpMV accelerator. */
class Accelerator
{
  public:
    explicit Accelerator(const ArchConfig &config);
    virtual ~Accelerator() = default;

    virtual std::string name() const = 0;

    /** Kernel clock this architecture closes timing at. */
    virtual double frequencyMhz() const = 0;

    /** Execute a schedule against the dense vector @p x. */
    virtual RunResult run(const sched::Schedule &schedule,
                          const std::vector<float> &x,
                          const SpmvParams &params = {}) const = 0;

    /**
     * Shared-bank distances the datapath instantiates per PE (0 = no
     * ScUG, the Serpens datapath).
     */
    virtual unsigned migrationDepth() const = 0;

    /**
     * Run against a pre-routed StreamPlan (see arch/stream_soa.h).
     * Bit-identical to run(); replays the plan's lanes instead of
     * walking the beat lists, which pays off when the same schedule is
     * simulated repeatedly. The plan must have been built from this
     * exact schedule with this accelerator's migrationDepth().
     */
    RunResult runPlanned(const sched::Schedule &schedule,
                         const StreamPlan &plan,
                         const std::vector<float> &x,
                         const SpmvParams &params = {}) const;

    const ArchConfig &config() const { return config_; }

  protected:
    ArchConfig config_;

    /**
     * Shared streaming core. Simulates every phase beat by beat through
     * per-channel PEGs, accumulates timing and traffic, merges partial
     * sums into y at pass boundaries and accounts the final writeback.
     *
     * @param migration_depth shared banks instantiated per PE; 0 makes
     *        any migrated slot a hard error (the Serpens datapath).
     *        Reduction Unit sweeps are accounted when it is nonzero.
     * @param plan            optional pre-routed lanes for this exact
     *        (schedule, migration_depth) pair, replayed instead of
     *        walking the beat lists (see arch/stream_soa.h). Results
     *        are bit-identical with or without a plan.
     */
    RunResult simulateStreaming(const sched::Schedule &schedule,
                                const std::vector<float> &x,
                                const SpmvParams &params,
                                unsigned migration_depth,
                                const StreamPlan *plan = nullptr) const;
};

} // namespace arch
} // namespace chason

#endif // CHASON_ARCH_ACCELERATOR_H_
