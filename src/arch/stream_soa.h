/**
 * @file
 * The streaming phase of the cycle-level simulation: one slot-routing
 * rule and the two loops that apply it.
 *
 * Each PE consumes one slot per beat. The slot's (pvt, PE_src) tags
 * route its product into URAM_pvt or a ScUG bank (Section 4.2); a
 * Serpens PE is the same datapath without ScUG banks (depth 0).
 * SlotRouter is that rule, written once, together with every model
 * check it implies (window bounds, lane ownership, migration reach).
 *
 * Two loops apply it:
 *  - streamChannel walks one channel's beat list of one phase, routes
 *    each valid slot and accumulates value * x[col] into the selected
 *    bank. Accelerator::run takes this path; it stages nothing.
 *  - StreamPlan routes every slot of a schedule once into per-PE
 *    struct-of-arrays lanes, and macPackedChannel replays those lanes
 *    against x. The lanes depend only on the schedule, not on x, so a
 *    caller that streams one schedule many times (runPlanned) pays for
 *    the routing once.
 *
 * Bit-identity: a bank only ever receives products from its owning
 * (channel, PE) lane, and both loops keep beat order within a lane,
 * so every bank sees the same additions in the same order. Both round
 * the product to fp32 before the add; chason_arch builds with
 * -ffp-contract=off so the two steps are never fused into an FMA. The
 * cycle accounting does not depend on which loop ran.
 */

#ifndef CHASON_ARCH_STREAM_SOA_H_
#define CHASON_ARCH_STREAM_SOA_H_

#include <array>
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
 * Walk one channel's beat list of one phase into @p peg: route every
 * valid slot and accumulate value * x[col] at beat @p beat_base + t
 * through the bank's RAW check. @p router must match the window loaded
 * in @p x and the migration depth of @p peg.
 */
void streamChannel(const sched::ChannelWindowSchedule &cws,
                   const SlotRouter &router, unsigned channel,
                   const XWindowBuffer &x, std::int64_t beat_base,
                   const sched::SchedConfig &config, Peg &peg);

/** The routed valid slots one PE consumes in one phase, in beat order. */
struct PackedLane
{
    std::vector<float> value;          ///< matrix values
    std::vector<std::uint32_t> winCol; ///< window-local column
    std::vector<std::uint32_t> addr;   ///< bank address
    std::vector<std::uint32_t> beat;   ///< beat offset within phase
    std::vector<std::uint8_t> bank;    ///< bank tag

    void
    clear()
    {
        value.clear();
        winCol.clear();
        addr.clear();
        beat.clear();
        bank.clear();
    }
};

/** All PE lanes of one channel-phase. */
struct PackedChannel
{
    std::array<PackedLane, sched::kMaxPesPerGroup> lanes;
};

/** Route one channel's beat list of one phase into per-PE lanes. */
void packChannel(const sched::ChannelWindowSchedule &cws,
                 const SlotRouter &router, unsigned channel,
                 const sched::SchedConfig &config, PackedChannel &out);

/**
 * Replay packed lanes against @p x into @p peg: the same products and
 * checked accumulations streamChannel makes, in the same per-bank
 * order.
 */
void macPackedChannel(const PackedChannel &packed, Peg &peg,
                      const XWindowBuffer &x, std::int64_t beat_base,
                      const sched::SchedConfig &config);

/**
 * Every channel-phase of one schedule, packed once. Build a plan when
 * the same schedule is streamed more than once (repeated SpMV, DSE
 * sweeps, benchmarking); Accelerator::simulateStreaming then replays
 * the packed lanes instead of walking the beat lists. The plan is
 * immutable after construction and safe to share across threads.
 *
 * The plan captures schedule *content*; it must be built from the same
 * schedule object (or a bit-identical copy) and the same migration
 * depth as the runs it accompanies — matches() spot-checks geometry.
 */
class StreamPlan
{
  public:
    StreamPlan(const sched::Schedule &schedule, unsigned migration_depth);

    /** Cheap consistency check against a schedule / depth pair. */
    bool matches(const sched::Schedule &schedule,
                 unsigned migration_depth) const;

    const PackedChannel &
    channel(std::size_t phase, unsigned ch) const
    {
        return packed_[phase * channels_ + ch];
    }

    unsigned migrationDepth() const { return migrationDepth_; }

  private:
    unsigned channels_ = 0;
    unsigned migrationDepth_ = 0;
    std::size_t phaseCount_ = 0;
    std::size_t nnz_ = 0;
    std::vector<PackedChannel> packed_; ///< [phase * channels + ch]
};

/**
 * Always false: the simulator has no vector kernel. Kept for the
 * benchmark's host stamp, which still reports it.
 */
bool streamSoaUsesAvx2();

} // namespace arch
} // namespace chason

#endif // CHASON_ARCH_STREAM_SOA_H_
