/**
 * @file
 * Slot routing and the two streaming loops that apply it.
 */

#include "arch/stream_soa.h"

#include <algorithm>

namespace chason {
namespace arch {

bool
streamSoaUsesAvx2()
{
    return false;
}

SlotRouter::SlotRouter(const sched::SchedConfig &config,
                       unsigned migration_depth, std::uint32_t win_base,
                       std::uint32_t win_len)
    : winBase_(win_base), winLen_(win_len),
      lanes_(sched::LaneMap(config).lanes()), laneShift_(-1),
      rowsPerLanePerPass_(config.rowsPerLanePerPass),
      rplpPow2_((config.rowsPerLanePerPass &
                 (config.rowsPerLanePerPass - 1)) == 0),
      channels_(config.channels), pes_(config.pesPerGroup()),
      migrationDepth_(migration_depth)
{
    if ((lanes_ & (lanes_ - 1)) == 0) {
        laneShift_ = 0;
        while ((1u << laneShift_) < lanes_)
            ++laneShift_;
    }
}

void
streamChannel(const sched::ChannelWindowSchedule &cws,
              const SlotRouter &router, unsigned channel,
              const XWindowBuffer &x, std::int64_t beat_base,
              const sched::SchedConfig &config, Peg &peg)
{
    const unsigned pes = peg.pes();
    AccumulatorBank *banks[sched::kMaxPesPerGroup];
    for (unsigned p = 0; p < pes; ++p)
        banks[p] = peg.pe(p).banks();
    const float *win = x.data();
    const sched::Beat *beats = cws.beats.data();

    // chason-lint: begin-hot (the walk every run() takes: one pass over
    // the beat list, one checked accumulate per valid slot)
    for (std::size_t t = 0; t < cws.beats.size(); ++t) {
        for (unsigned p = 0; p < pes; ++p) {
            const sched::Slot &slot = beats[t].slots[p];
            if (!slot.valid)
                continue; // explicit zero: MAC skipped, PE idle
            const SlotRoute r = router.route(slot, channel, p);
            const float product = slot.value * win[r.winCol];
            banks[p][r.bank].accumulate(
                r.addr, product, beat_base + static_cast<std::int64_t>(t),
                config.rawDistance);
        }
    }
    // chason-lint: end-hot
}

void
packChannel(const sched::ChannelWindowSchedule &cws,
            const SlotRouter &router, unsigned channel,
            const sched::SchedConfig &config, PackedChannel &out)
{
    const unsigned pes = config.pesPerGroup();
    for (unsigned p = 0; p < pes; ++p)
        out.lanes[p].clear();
    for (std::size_t t = 0; t < cws.beats.size(); ++t) {
        const sched::Beat &bt = cws.beats[t];
        for (unsigned p = 0; p < pes; ++p) {
            const sched::Slot &slot = bt.slots[p];
            if (!slot.valid)
                continue;
            const SlotRoute r = router.route(slot, channel, p);
            PackedLane &lane = out.lanes[p];
            lane.value.push_back(slot.value);
            lane.winCol.push_back(r.winCol);
            lane.addr.push_back(r.addr);
            lane.beat.push_back(static_cast<std::uint32_t>(t));
            lane.bank.push_back(r.bank);
        }
    }
}

void
macPackedChannel(const PackedChannel &packed, Peg &peg,
                 const XWindowBuffer &x, std::int64_t beat_base,
                 const sched::SchedConfig &config)
{
    const float *win = x.data();
    const unsigned raw_distance = config.rawDistance;
    // chason-lint: begin-hot (runPlanned replay: the packed-lane MAC
    // loop is the hottest code in the simulator)
    for (unsigned p = 0; p < peg.pes(); ++p) {
        const PackedLane &lane = packed.lanes[p];
        AccumulatorBank *banks = peg.pe(p).banks();
        const std::size_t n = lane.value.size();
        const float *value = lane.value.data();
        const std::uint32_t *col = lane.winCol.data();
        const std::uint32_t *addr = lane.addr.data();
        const std::uint32_t *beat = lane.beat.data();
        const std::uint8_t *bank = lane.bank.data();
        for (std::size_t i = 0; i < n; ++i) {
            const float product = value[i] * win[col[i]];
            banks[bank[i]].accumulate(
                addr[i], product,
                beat_base + static_cast<std::int64_t>(beat[i]),
                raw_distance);
        }
    }
    // chason-lint: end-hot
}

StreamPlan::StreamPlan(const sched::Schedule &schedule,
                       unsigned migration_depth)
    : channels_(schedule.config.channels),
      migrationDepth_(migration_depth),
      phaseCount_(schedule.phases.size()), nnz_(schedule.nnz)
{
    const sched::SchedConfig &sc = schedule.config;
    packed_.resize(phaseCount_ * channels_);
    for (std::size_t ph = 0; ph < phaseCount_; ++ph) {
        const sched::WindowSchedule &phase = schedule.phases[ph];
        const std::uint32_t win_base = phase.window * sc.windowCols;
        const std::uint32_t win_len = std::min<std::uint32_t>(
            sc.windowCols, schedule.cols - win_base);
        const SlotRouter router(sc, migration_depth, win_base, win_len);
        for (unsigned ch = 0; ch < channels_; ++ch) {
            packChannel(phase.channels[ch], router, ch, sc,
                        packed_[ph * channels_ + ch]);
        }
    }
}

bool
StreamPlan::matches(const sched::Schedule &schedule,
                    unsigned migration_depth) const
{
    return channels_ == schedule.config.channels &&
        migrationDepth_ == migration_depth &&
        phaseCount_ == schedule.phases.size() && nnz_ == schedule.nnz;
}

} // namespace arch
} // namespace chason
