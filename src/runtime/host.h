/**
 * @file
 * Host-side execution model: what happens around the kernel.
 *
 * The paper's methodology (Section 5.2) runs 1000 iterations on the
 * FPGAs "to amortize the overhead associated with bitstream transfer
 * and FPGA reconfiguration" (10 on the GPUs, 100+100 on the CPU). This
 * module makes that quantitative: it models the PCIe Gen3 x16 link the
 * U55c hangs off (Section 5.1), the one-time bitstream configuration,
 * the one-time DMA of the scheduling artifact into HBM, the per-
 * iteration x upload / y download, and the kernel itself (from the
 * cycle estimator) — and reports how per-iteration latency converges to
 * kernel latency as the iteration count grows.
 */

#ifndef CHASON_RUNTIME_HOST_H_
#define CHASON_RUNTIME_HOST_H_

#include "arch/estimator.h"
#include "sched/schedule.h"

namespace chason {
namespace runtime {

/** The host link and one-time costs. */
struct HostPlatform
{
    /** Effective PCIe Gen3 x16 DMA bandwidth in GB/s. */
    double pcieBandwidthGBps = 12.0;

    /** Per-DMA software latency in microseconds (driver + descriptor). */
    double dmaLatencyUs = 10.0;

    /** One-time bitstream configuration in milliseconds. */
    double bitstreamLoadMs = 2200.0;

    /** Per-invocation kernel dispatch in microseconds. */
    double dispatchUs = 12.0;

    /** DMA time for @p bytes in microseconds. */
    double dmaUs(std::uint64_t bytes) const;
};

/**
 * End-to-end cost breakdown of an amortized measurement run.
 *
 * Units are in the field names: *Ms fields are wall milliseconds, *Us
 * fields wall microseconds (kernel cycles have already been converted
 * through the datapath clock by the estimator). Pure data + const
 * accessors: safe to build and read from concurrent batch workers.
 */
struct EndToEndReport
{
    unsigned iterations = 0;

    double bitstreamMs = 0.0;     ///< one-time
    double artifactDmaMs = 0.0;   ///< one-time: schedule lists into HBM
    double xUploadUs = 0.0;       ///< per iteration
    double yDownloadUs = 0.0;     ///< per iteration
    double dispatchUs = 0.0;      ///< per iteration
    double kernelUs = 0.0;        ///< per iteration (the paper's number)

    /** Wall time for the whole run in milliseconds. */
    double totalMs() const;

    /** Per-iteration latency including the amortized one-time costs. */
    double amortizedPerIterationUs() const;

    /** Per-iteration latency excluding one-time costs (steady state). */
    double steadyStatePerIterationUs() const
    {
        return xUploadUs + yDownloadUs + dispatchUs + kernelUs;
    }

    /**
     * Fraction of the amortized per-iteration time that is the kernel —
     * how close the measurement is to "raw performance of the SpMV
     * kernel itself" (Section 5.2).
     */
    double kernelShare() const;
};

/**
 * One prepared accelerator session: a schedule resident in HBM plus the
 * host-side cost model.
 *
 * Immutable after construction; measure() is const and deterministic,
 * so a session may be shared across batch workers — chason_sweep's
 * per-matrix end-to-end section calls it from the core::BatchEngine
 * pool against cache-resident schedules.
 */
class HostSession
{
  public:
    HostSession(arch::DatapathKind kind, HostPlatform platform = {},
                arch::ArchConfig config = {});

    /**
     * Model a measurement campaign of @p iterations invocations of the
     * schedule with fresh x each time.
     * @param include_bitstream also charge the one-time FPGA
     *        configuration; boards are normally configured once per
     *        session, not per matrix, so the default leaves it out.
     */
    EndToEndReport measure(const sched::Schedule &schedule,
                           unsigned iterations,
                           bool include_bitstream = false) const;

  private:
    arch::DatapathKind kind_;
    HostPlatform platform_;
    arch::ArchConfig config_;
};

} // namespace runtime
} // namespace chason

#endif // CHASON_RUNTIME_HOST_H_
