/**
 * @file
 * Timing helpers.
 */

#include "arch/timing.h"

#include <cmath>

#include "common/logging.h"

namespace chason {
namespace arch {

double
memoryStallFactor(const hbm::HbmConfig &hbm, double frequency_mhz)
{
    chason_assert(frequency_mhz > 0.0, "frequency must be positive");
    const double wanted_gbps =
        frequency_mhz * 1e6 * hbm.bytesPerBeat() / 1e9;
    return std::max(1.0, wanted_gbps / hbm.channelBandwidthGBps);
}

std::uint64_t
streamCycles(std::uint64_t beats, double stall_factor)
{
    chason_assert(stall_factor >= 1.0, "stall factor below 1");
    return static_cast<std::uint64_t>(
        std::ceil(static_cast<double>(beats) * stall_factor));
}

} // namespace arch
} // namespace chason
