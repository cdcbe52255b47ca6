/**
 * @file
 * Chasoň datapath implementation.
 */

#include "arch/chason_accel.h"

#include <algorithm>

namespace chason {
namespace arch {

ChasonAccelerator::ChasonAccelerator(const ArchConfig &config)
    : Accelerator(config)
{
    FrequencyModel fm;
    frequencyMhz_ = fm.achievedMhz(MemoryTopology::DistributedUramGroup);
}

unsigned
ChasonAccelerator::migrationDepth() const
{
    return std::max(1u, config_.sched.migrationDepth);
}

RunResult
ChasonAccelerator::run(const sched::Schedule &schedule,
                       const std::vector<float> &x,
                       const SpmvParams &params) const
{
    return simulateStreaming(schedule, x, params, migrationDepth());
}

} // namespace arch
} // namespace chason
