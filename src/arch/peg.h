/**
 * @file
 * Processing element group model (Section 4.2).
 *
 * A PEG owns eight PEs. Each PE has a multiplier, a 10-cycle accumulating
 * adder, a private-partial-sum URAM (URAM_pvt), and — in Chasoň — a
 * shared-channel URAM group (ScUG) with one logical bank per source PE
 * (and per migration-distance when the scheduler is configured beyond
 * the paper's depth of 1). The Router steers each product to the right
 * bank using the (pvt, PE_src) tags.
 *
 * The model is functional plus checked, as the paper splits the work:
 * CrHCS guarantees the RAW distance offline (Section 3.3) and the PEG
 * only streams and accumulates. The check runs once per slot, when a
 * StreamPlan is built (arch/stream_soa.h): a write closer than the RAW
 * distance to the previous write of its bank address panics there,
 * before any run, instead of silently producing wrong sums. The banks
 * here hold sums only.
 */

#ifndef CHASON_ARCH_PEG_H_
#define CHASON_ARCH_PEG_H_

#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "sched/config.h"

namespace chason {
namespace arch {

/** One accumulator URAM bank: partial sums, one per bank address. */
class AccumulatorBank
{
  public:
    /**
     * Clear the sums; size for @p depth rows. When the bank is already
     * @p depth deep, only a bank written since the last reset is
     * cleared — most shared banks of a PEG set never receive a migrated
     * product, so skipping those clears removes the bulk of the per-run
     * reset traffic when PEG sets are reused across runs.
     */
    void reset(std::size_t depth);

    /**
     * Add @p product at @p addr. No check runs here: the StreamPlan
     * build already bounded the address and held it to the RAW
     * distance. Defined inline: this is the innermost operation of a
     * replay, executed once per non-zero.
     */
    void
    add(std::uint32_t addr, float product)
    {
        sums_[addr] += product;
        dirty_ = true;
    }

    float value(std::uint32_t addr) const;
    std::size_t depth() const { return sums_.size(); }

    /** Raw partial-sum storage, indexed by bank address. */
    const float *data() const { return sums_.data(); }

    /**
     * True when a sum was added since the last reset; a clean bank
     * holds +0.0 at every address.
     */
    bool dirty() const { return dirty_; }

  private:
    std::vector<float> sums_;
    bool dirty_ = false; ///< sums_ written since the last reset
};

/** BRAM buffer holding the current window of the dense vector x. */
class XWindowBuffer
{
  public:
    /** Load x[base, base+len) as the active window. */
    void load(const std::vector<float> &x, std::uint32_t base,
              std::uint32_t len);

    /** Raw window storage, indexed by window-local column. */
    const float *data() const { return window_.data(); }

    std::uint32_t base() const { return base_; }
    std::uint32_t length() const
    {
        return static_cast<std::uint32_t>(window_.size());
    }

  private:
    std::vector<float> window_;
    std::uint32_t base_ = 0;
};

/**
 * Tag of the ScUG bank holding products from source PE @p src_pe that
 * migrated @p distance channels (>= 1). Tag 0 is URAM_pvt; this is the
 * index into Pe::banks() that the Router's (pvt, PE_src) tags select.
 */
inline unsigned
sharedBankTag(unsigned distance, unsigned src_pe, unsigned pes)
{
    return 1 + (distance - 1) * pes + src_pe;
}

/**
 * One processing element's accumulator banks: URAM_pvt plus one ScUG
 * bank per (migration distance, source PE). The multiplier and the
 * Router that feed them are modelled by arch/stream_soa.h.
 */
class Pe
{
  public:
    /**
     * @param migration_depth shared-bank distances supported (0 = a
     *                        Serpens PE with no shared storage)
     * @param pes             source PEs per shared distance
     */
    Pe(unsigned migration_depth, unsigned pes);

    /** Clear all banks and size them for @p uram_depth rows. */
    void reset(std::size_t uram_depth);

    const AccumulatorBank &pvt() const { return banks_[0]; }

    /** Shared bank for (distance, source PE); distance >= 1. */
    const AccumulatorBank &shared(unsigned distance, unsigned src_pe) const;

    /** Every bank, indexed by bank tag (see sharedBankTag()). */
    AccumulatorBank *banks() { return banks_.data(); }

    unsigned migrationDepth() const { return depth_; }

  private:
    std::vector<AccumulatorBank> banks_; ///< indexed by bank tag
    unsigned depth_;
    unsigned pes_;
};

/**
 * A PEG: the PEs of one channel plus its Reduction Unit.
 */
class Peg
{
  public:
    Peg(const sched::SchedConfig &config, unsigned migration_depth);

    void reset(std::size_t uram_depth);

    Pe &pe(unsigned p);
    const Pe &pe(unsigned p) const;
    unsigned pes() const { return static_cast<unsigned>(pes_.size()); }

    /**
     * Reduction Unit (Section 4.2.2): sum the shared banks of all PEs
     * for a given (distance, source PE) — the adder-tree sweep — and
     * write the consolidated per-row partial sums into @p out (bank
     * depth entries). The summation order is a balanced pairwise adder
     * tree at every address. Returns false when no PE's bank was
     * written since its reset: every sum in @p out is then +0.0, which
     * a caller may skip adding — a sum that starts at +0.0 is never
     * -0.0, so adding +0.0 to it is an exact identity.
     */
    bool reduceSharedInto(unsigned distance, unsigned src_pe,
                          float *out) const;

  private:
    static constexpr std::size_t kMaxLeaves = sched::kMaxPesPerGroup;

    std::vector<Pe> pes_;
};

} // namespace arch
} // namespace chason

#endif // CHASON_ARCH_PEG_H_
