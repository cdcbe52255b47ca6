/**
 * @file
 * Timing model shared by the accelerator simulators.
 *
 * Both Serpens and Chasoň are fully streaming II=1 designs, so time is
 * dominated by how many 512-bit beats each phase streams, capped by the
 * per-channel HBM bandwidth. A kernel clocked above the channel's beat
 * rate (Chasoň at 301 MHz wants 19.3 GB/s per channel against the U55c's
 * 14.37 GB/s) stalls on memory; the memory stall factor models that:
 * streaming N beats costs ceil(N * factor) cycles.
 */

#ifndef CHASON_ARCH_TIMING_H_
#define CHASON_ARCH_TIMING_H_

#include <cstdint>

#include "hbm/hbm.h"

namespace chason {
namespace arch {

/** Cycle-cost constants of the datapaths. */
struct TimingConfig
{
    /**
     * Pipeline fill/drain per (pass, window) phase: multiplier, adder and
     * routing latency before the first result lands and after the last
     * beat enters.
     */
    unsigned pipelineFillCycles = 48;

    /**
     * Latency of the Reduction Unit's 8-input adder tree (3 stages of
     * the 10-cycle FP accumulator, plus margin).
     */
    unsigned reductionTreeLatency = 32;

    /**
     * Host-side kernel dispatch overhead per invocation in microseconds.
     * The paper amortizes bitstream/launch costs over 1000 iterations
     * (Section 5.2), so the per-iteration share is tiny.
     */
    double launchOverheadUs = 0.2;
};

/**
 * Memory stall factor >= 1: effective cycles per streamed beat when the
 * clock outruns the per-channel HBM bandwidth.
 */
double memoryStallFactor(const hbm::HbmConfig &hbm, double frequency_mhz);

/** Cycles to stream @p beats at the given stall factor. */
std::uint64_t streamCycles(std::uint64_t beats, double stall_factor);

/** Cycle breakdown of one accelerator run. */
struct CycleBreakdown
{
    std::uint64_t matrixStream = 0; ///< matrix channel beats (aligned)
    std::uint64_t xLoad = 0;        ///< dense vector window loads
    std::uint64_t pipelineFill = 0; ///< per-phase fill/drain
    std::uint64_t reduction = 0;    ///< ScUG sweeps (Chasoň only)
    std::uint64_t writeback = 0;    ///< y read + write streaming
    std::uint64_t instStream = 0;   ///< instruction-order channel
    std::uint64_t launch = 0;       ///< host dispatch share

    std::uint64_t total() const
    {
        return matrixStream + xLoad + pipelineFill + reduction +
            writeback + instStream + launch;
    }
};

} // namespace arch
} // namespace chason

#endif // CHASON_ARCH_TIMING_H_
