/**
 * @file
 * The Chasoň accelerator (Section 4).
 *
 * Extends the Serpens datapath with, per PE, a Router and a shared-
 * channel URAM group (ScUG), and per PEG a Reduction Unit (adder tree
 * over the eight ScUGs) plus the Re-order/Arbiter/Merger rearrange
 * logic, so that non-zeros migrated by CrHCS accumulate correctly.
 * Closes timing at 301 MHz on the U55c thanks to the distributed URAM
 * write traffic (Section 4.5).
 */

#ifndef CHASON_ARCH_CHASON_ACCEL_H_
#define CHASON_ARCH_CHASON_ACCEL_H_

#include <algorithm>

#include "arch/accelerator.h"

namespace chason {
namespace arch {

/** Chasoň: cross-channel streaming SpMV accelerator. */
class ChasonAccelerator : public Accelerator
{
  public:
    explicit ChasonAccelerator(const ArchConfig &config)
        : Accelerator(config)
    {
    }

    std::string name() const override { return "chason"; }

    /**
     * Follows the scheduler configuration, at least 1 (the paper
     * builds depth 1).
     */
    unsigned migrationDepth() const override
    {
        return std::max(1u, config_.sched.migrationDepth);
    }
};

} // namespace arch
} // namespace chason

#endif // CHASON_ARCH_CHASON_ACCEL_H_
