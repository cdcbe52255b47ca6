/**
 * @file
 * Accelerator base: configuration, run results, the timing model and
 * the shared streaming simulation both Serpens and Chasoň build on.
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
namespace trace {
class TraceSink; // trace/trace.h
} // namespace trace

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

/**
 * What running a schedule costs, independent of x: fixed once the
 * scheduler has laid out the channel data lists.
 */
struct Timeline
{
    /** Cycle breakdown at the accelerator's clock. */
    CycleBreakdown cycles;

    /**
     * Per-channel transfer accounting: matrix, x and descriptor reads
     * and the y writes. A beta != 0 call also reads y; that is per
     * call, not per schedule, so it is not in here.
     */
    hbm::HbmDevice traffic;

    /** Memory stall factor that was applied. */
    double memStallFactor = 1.0;

    /** Latency in microseconds at the accelerator's clock. */
    double latencyUs = 0.0;

    explicit Timeline(const hbm::HbmConfig &hbm) : traffic(hbm) {}
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

/**
 * Streaming SpMV accelerator: the shared datapath of Serpens and
 * Chasoň, which differ only in how many shared-bank distances a PE
 * instantiates (migrationDepth()).
 */
class Accelerator
{
  public:
    explicit Accelerator(const ArchConfig &config);
    virtual ~Accelerator() = default;

    virtual std::string name() const = 0;

    /**
     * Shared-bank distances the datapath instantiates per PE (0 = no
     * ScUG, the Serpens datapath: any migrated slot is a hard error).
     */
    virtual unsigned migrationDepth() const = 0;

    /**
     * Kernel clock this architecture closes timing at: the frequency
     * model's single-URAM topology at depth 0, its distributed ScUG
     * topology otherwise.
     */
    double frequencyMhz() const;

    /**
     * Execute a schedule against the dense vector @p x once: build its
     * StreamPlan (arch/stream_soa.h), which runs every model check, and
     * replay it through runPlanned(). A caller that runs one schedule
     * more than once keeps the plan and calls runPlanned() instead.
     */
    RunResult run(const sched::Schedule &schedule,
                  const std::vector<float> &x,
                  const SpmvParams &params = {}) const;

    /**
     * Run against a StreamPlan built from this exact schedule with this
     * accelerator's migrationDepth(): replay its routed and checked
     * slots through per-channel PEGs, merge partial sums into y at pass
     * boundaries, and take cycles and traffic from timeline().
     */
    RunResult runPlanned(const sched::Schedule &schedule,
                         const StreamPlan &plan,
                         const std::vector<float> &x,
                         const SpmvParams &params = {}) const;

    /**
     * The timing model: cycles, traffic and latency of running
     * @p schedule, which depend on the schedule alone (Fig. 2). Per
     * phase, the x-window load is double-buffered behind the matrix
     * stream, all channels stream in lockstep for alignedBeats, and the
     * pipeline refills; per pass, the y write overlaps the Reduction
     * Unit sweep; launch is charged once. run() and runPlanned() report
     * exactly this; estimates call it without simulating.
     *
     * @param sink when non-null, receives the device spans on the
     *        simulated-cycle timeline, including each PEG's busy/stall
     *        split, so the attribution invariant (trace/attribution.h)
     *        holds by construction. Estimates pass nullptr.
     */
    Timeline timeline(const sched::Schedule &schedule,
                      trace::TraceSink *sink) const;

    const ArchConfig &config() const { return config_; }

  protected:
    ArchConfig config_;

};

} // namespace arch
} // namespace chason

#endif // CHASON_ARCH_ACCELERATOR_H_
