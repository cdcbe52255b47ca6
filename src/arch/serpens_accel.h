/**
 * @file
 * The Serpens baseline accelerator (Song et al., DAC 2022; Section 4.4).
 *
 * Same PEG geometry as Chasoň (16 channels x 8 PEs), but each PE stores
 * all partial outputs in a single private URAM: the datapath cannot
 * execute work from another channel, so any migrated slot in a schedule
 * is a hard error. There is no Reduction Unit; the Arbiter and Merger
 * only concatenate private streams. Closes timing at 223 MHz on the
 * U55c (rebuilt with Autobridge, Section 5.2).
 */

#ifndef CHASON_ARCH_SERPENS_ACCEL_H_
#define CHASON_ARCH_SERPENS_ACCEL_H_

#include "arch/accelerator.h"
#include "arch/frequency.h"

namespace chason {
namespace arch {

/** Serpens: intra-channel streaming SpMV accelerator. */
class SerpensAccelerator : public Accelerator
{
  public:
    explicit SerpensAccelerator(const ArchConfig &config);

    std::string name() const override { return "serpens"; }

    double frequencyMhz() const override { return frequencyMhz_; }

    RunResult run(const sched::Schedule &schedule,
                  const std::vector<float> &x,
                  const SpmvParams &params = {}) const override;

    /** No ScUG: a migrated slot is a hard error. */
    unsigned migrationDepth() const override { return 0; }

  private:
    double frequencyMhz_;
};

} // namespace arch
} // namespace chason

#endif // CHASON_ARCH_SERPENS_ACCEL_H_
