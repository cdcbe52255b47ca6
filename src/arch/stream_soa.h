/**
 * @file
 * The streaming phase of the cycle-level simulation: one slot-routing
 * rule and one way to stream, a plan that applies it once per schedule.
 *
 * Each PE consumes one slot per beat. The slot's (pvt, PE_src) tags
 * route its product into URAM_pvt or a ScUG bank (Section 4.2); a
 * Serpens PE is the same datapath without ScUG banks (depth 0).
 * SlotRouter is that rule, written once, together with every model
 * check it implies (window bounds, lane ownership, migration reach).
 *
 * StreamPlan is the one way to stream a schedule. Its build runs every
 * check once: it routes each valid slot, bounds its bank address by
 * the pass depth and holds it to the RAW distance (the rule CrHCS
 * guarantees offline, Section 3.3, and the only place the model checks
 * it), then stores it as 12 bytes (value, window column and a packed
 * bank/address word) in one flat arena, segmented per (channel, phase,
 * PE). None of that depends on x. Its replay (Accelerator::runPlanned)
 * does products only: bank[addr] += value * x[col], read linearly, as
 * the PEG streams its offline-packed lists at run time.
 * Accelerator::run builds a plan for one call; a core::CachedSchedule
 * builds one on its entry's first run, and every later request
 * replays it.
 *
 * Determinism: a bank only ever receives products from its owning
 * (channel, PE) lane, and the plan keeps beat order within a lane, so
 * every bank sees its additions in the beat lists' order. The product
 * is rounded to fp32 before the add; chason_arch builds with
 * -ffp-contract=off so the two steps are never fused into an FMA. The
 * replay counts no cycles: it computes y only, and cycles, traffic and
 * device spans come from Accelerator::timeline, which reads the
 * schedule alone.
 */

#ifndef CHASON_ARCH_STREAM_SOA_H_
#define CHASON_ARCH_STREAM_SOA_H_

#include <cstdint>
#include <vector>

#include "arch/peg.h"
#include "common/logging.h"
#include "sched/schedule.h"

namespace chason {
namespace arch {

/** Where one slot's product goes. */
struct SlotRoute
{
    std::uint32_t winCol; ///< window-local column of x
    std::uint32_t addr;   ///< bank address: local row within the pass
    std::uint8_t bank;    ///< bank tag: 0 = URAM_pvt, else sharedBankTag()
};

/**
 * The Router's rule for one phase: PEs with @p migration_depth shared
 * distances, streaming against the x window [win_base, win_base +
 * win_len).
 */
class SlotRouter
{
  public:
    SlotRouter(const sched::SchedConfig &config, unsigned migration_depth,
               std::uint32_t win_base, std::uint32_t win_len);

    /**
     * Route the valid @p slot that PE @p pe of channel @p channel
     * consumes. Panics when the column lies outside the window, a
     * private slot sits on a foreign lane, or a migrated slot needs a
     * distance or a source PE the PE has no bank for. Always inlined:
     * it runs once per non-zero, and its panic paths would otherwise
     * talk the compiler out of inlining it.
     */
    [[gnu::always_inline]] SlotRoute
    route(const sched::Slot &slot, unsigned channel, unsigned pe) const
    {
        chason_assert(slot.col >= winBase_ && slot.col - winBase_ < winLen_,
                      "column %u outside loaded window [%u, %u)", slot.col,
                      winBase_, winBase_ + winLen_);
        // Power-of-two geometry (the default config) turns the
        // local-row divisions into a shift and a mask.
        const std::uint32_t local_row =
            laneShift_ >= 0 ? slot.row >> laneShift_ : slot.row / lanes_;
        const std::uint32_t addr = rplpPow2_
            ? (local_row & (rowsPerLanePerPass_ - 1))
            : (local_row % rowsPerLanePerPass_);
        if (slot.pvt) {
            chason_assert(slot.chSrc == channel && slot.peSrc == pe,
                          "private slot of lane (%u,%u) routed to (%u,%u)",
                          slot.chSrc, slot.peSrc, channel, pe);
            return {slot.col - winBase_, addr, 0};
        }
        const unsigned distance =
            (slot.chSrc + channels_ - channel) % channels_;
        chason_assert(distance >= 1 && distance <= migrationDepth_,
                      "migrated slot from channel %u needs distance %u, "
                      "PE supports %u",
                      slot.chSrc, distance, migrationDepth_);
        chason_assert(slot.peSrc < pes_, "PE_src %u out of range",
                      slot.peSrc);
        const unsigned tag = sharedBankTag(distance, slot.peSrc, pes_);
        chason_assert(tag <= 255, "bank tag %u overflows the routing tag",
                      tag);
        return {slot.col - winBase_, addr, static_cast<std::uint8_t>(tag)};
    }

  private:
    std::uint32_t winBase_;
    std::uint32_t winLen_;
    std::uint32_t lanes_;
    int laneShift_; ///< log2(lanes_), or -1 when not a power of two
    std::uint32_t rowsPerLanePerPass_;
    bool rplpPow2_;
    unsigned channels_;
    unsigned pes_;
    unsigned migrationDepth_;
};

/**
 * Every valid slot of one schedule, routed and checked once: the
 * simulator's only way to compute y. Accelerator::run builds one per
 * call; a caller that streams one schedule more than once (served
 * requests, SpMM columns, iterative solvers, benchmarking) keeps one
 * and calls Accelerator::runPlanned. The plan is immutable after
 * construction and safe to share across threads.
 *
 * Construction panics on a schedule the datapath cannot run: a
 * SlotRouter check, a bank address beyond the pass depth, or a RAW
 * hazard — two writes to one bank address fewer than rawDistance beats
 * apart, where each phase starts rawDistance beats after the previous
 * one ends (the pipeline drains between phases). The RAW stamps are
 * one flat int32 table for the banks of one PEG, reset at every pass,
 * so the build works channel by channel, and makes two passes over
 * each channel's beat list of a phase: the first counts each PE's
 * valid slots and grows the arena by exactly that much, the second
 * (reading the list from cache) routes, checks and fills.
 *
 * The plan captures schedule *content*; it must be built from the same
 * schedule object (or a bit-identical copy) and the same migration
 * depth as the runs it accompanies — matches() spot-checks geometry.
 */
class StreamPlan
{
  public:
    StreamPlan(const sched::Schedule &schedule, unsigned migration_depth);

    /**
     * Resident bytes of the plan of @p schedule, in closed form:
     * 12 per non-zero plus 4 per (phase, channel, PE) segment offset
     * and one end offset. Known before the plan is built.
     */
    static std::size_t bytesFor(const sched::Schedule &schedule);

    /** Resident bytes of this plan; bytesFor() of its schedule. */
    std::size_t memoryBytes() const;

    /** Cheap consistency check against a schedule / depth pair. */
    bool matches(const sched::Schedule &schedule,
                 unsigned migration_depth) const;

    /**
     * Replay channel @p ch of phase @p phase against the window loaded
     * in @p x into @p peg: bank[addr] += value * x[col] for every slot,
     * PE by PE in beat order. No check runs here; the build ran them.
     */
    void replay(std::size_t phase, unsigned ch, const XWindowBuffer &x,
                Peg &peg) const;

    unsigned migrationDepth() const { return migrationDepth_; }

  private:
    /** One routed valid slot: 12 bytes of the arena. */
    struct PlannedSlot
    {
        float value;            ///< matrix value
        std::uint32_t winCol;   ///< window-local column of x
        std::uint32_t bankAddr; ///< bank tag << kAddrBits | address
    };

    static constexpr unsigned kAddrBits = 24;
    static constexpr std::uint32_t kAddrMask = (1u << kAddrBits) - 1;

    unsigned channels_ = 0;
    unsigned pes_ = 0;
    unsigned migrationDepth_ = 0;
    std::size_t phaseCount_ = 0;
    std::size_t nnz_ = 0;
    /** Arena index of segment (channel, phase, PE) at
     *  [(channel * phases + phase) * pes + PE]; one end entry. */
    std::vector<std::uint32_t> offsets_;
    /** Channel-major, as the build fills it; grown uninitialized. */
    std::vector<PlannedSlot, sched::detail::NoInitAlloc<PlannedSlot>>
        arena_;
};

/**
 * Always false: the simulator has no vector kernel. Kept for the
 * benchmark's host stamp, which still reports it.
 */
bool streamSoaUsesAvx2();

} // namespace arch
} // namespace chason

#endif // CHASON_ARCH_STREAM_SOA_H_
