/**
 * @file
 * Serpens datapath implementation.
 */

#include "arch/serpens_accel.h"

#include "common/logging.h"

namespace chason {
namespace arch {

SerpensAccelerator::SerpensAccelerator(const ArchConfig &config)
    : Accelerator(config)
{
    FrequencyModel fm;
    frequencyMhz_ = fm.achievedMhz(MemoryTopology::SingleUramPerPe);
    chason_assert(config_.sched.migrationDepth == 0 ||
                      config_.sched.migrationDepth <= config_.sched
                          .channels,
                  "bad migration depth");
}

RunResult
SerpensAccelerator::run(const sched::Schedule &schedule,
                        const std::vector<float> &x,
                        const SpmvParams &params) const
{
    // The Serpens datapath has no shared banks: a schedule containing
    // migrated work cannot run on it.
    for (const sched::WindowSchedule &phase : schedule.phases) {
        for (const sched::ChannelWindowSchedule &ch : phase.channels) {
            for (const sched::Beat &beat : ch.beats) {
                for (unsigned p = 0; p < schedule.config.pesPerGroup();
                     ++p) {
                    chason_assert(!beat.slots[p].valid ||
                                      beat.slots[p].pvt,
                                  "Serpens cannot execute migrated "
                                  "non-zeros (row %u)",
                                  beat.slots[p].row);
                }
            }
        }
    }
    return simulateStreaming(schedule, x, params, migrationDepth());
}

} // namespace arch
} // namespace chason
