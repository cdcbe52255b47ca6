/**
 * @file
 * Slot routing and the stream plan.
 */

#include "arch/stream_soa.h"

#include <algorithm>
#include <limits>

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

namespace {

/**
 * The RAW-distance rule, written once: the beat of the last write to
 * every bank address of one PEG, as one flat int32 table indexed
 * [(PE * banks per PE + bank tag) * depth + address]. Stream beats are
 * bounded by the schedule length, far below 2^31; stamp() asserts it.
 */
class RawStamps
{
  public:
    RawStamps(unsigned pes, unsigned banks_per_pe)
        : banks_(std::size_t{pes} * banks_per_pe), banksPerPe_(banks_per_pe)
    {
    }

    /** Forget every write; size each bank for @p depth rows. */
    void
    reset(std::uint32_t depth)
    {
        depth_ = depth;
        last_.assign(banks_ * depth, kNeverWritten);
    }

    /**
     * Record a write by PE @p pe to bank @p tag, address @p addr, at
     * stream beat @p beat. Panics if @p addr lies beyond the depth, or
     * if the previous write to that address was closer than
     * @p raw_distance beats: the real pipeline would have read a stale
     * partial sum.
     */
    void
    stamp(unsigned pe, unsigned tag, std::uint32_t addr, std::int64_t beat,
          unsigned raw_distance)
    {
        chason_assert(addr < depth_, "bank address %u beyond depth %u",
                      addr, depth_);
        chason_assert(beat >= 0 && beat <= kMaxBeat,
                      "beat %lld outside the RAW stamp range",
                      static_cast<long long>(beat));
        std::int32_t &last =
            last_[(pe * banksPerPe_ + tag) * std::size_t{depth_} + addr];
        chason_assert(static_cast<std::int64_t>(last) +
                              static_cast<std::int64_t>(raw_distance) <=
                          beat,
                      "RAW hazard at address %u: writes at beats %lld "
                      "and %lld",
                      addr, static_cast<long long>(last),
                      static_cast<long long>(beat));
        last = static_cast<std::int32_t>(beat);
    }

  private:
    static constexpr std::int64_t kMaxBeat =
        std::numeric_limits<std::int32_t>::max();
    static constexpr std::int32_t kNeverWritten =
        std::numeric_limits<std::int32_t>::min() / 2;

    std::size_t banks_;
    std::size_t banksPerPe_;
    std::uint32_t depth_ = 0;
    std::vector<std::int32_t> last_;
};

} // namespace

StreamPlan::StreamPlan(const sched::Schedule &schedule,
                       unsigned migration_depth)
    : channels_(schedule.config.channels),
      pes_(schedule.config.pesPerGroup()),
      migrationDepth_(migration_depth),
      phaseCount_(schedule.phases.size()), nnz_(schedule.nnz)
{
    static_assert(sizeof(PlannedSlot) == 12, "a planned slot is 12 bytes");
    const sched::SchedConfig &sc = schedule.config;
    chason_assert(sc.rowsPerLanePerPass <= kAddrMask + 1,
                  "%u rows per lane per pass overflow the plan's %u-bit "
                  "bank address",
                  sc.rowsPerLanePerPass, kAddrBits);
    offsets_.reserve(channels_ * phaseCount_ * pes_ + 1);
    arena_.reserve(schedule.nnz); // one valid slot per non-zero

    // Channel by channel: the stamps of one PEG's banks, reset at
    // every pass; the beat base advances per phase by its aligned beats
    // plus the drain of rawDistance beats.
    RawStamps stamps(pes_, 1 + migration_depth * pes_);
    PlannedSlot *out[sched::kMaxPesPerGroup];
    std::size_t count[sched::kMaxPesPerGroup] = {};
    for (unsigned ch = 0; ch < channels_; ++ch) {
        std::int64_t beat_base = 0;
        std::int64_t current_pass = -1;
        for (std::size_t ph = 0; ph < phaseCount_; ++ph) {
            const sched::WindowSchedule &phase = schedule.phases[ph];
            if (static_cast<std::int64_t>(phase.pass) != current_pass) {
                current_pass = phase.pass;
                stamps.reset(sched::passDepth(schedule, phase.pass));
            }
            const sched::BeatList &list = phase.channels[ch].beats;
            const sched::Beat *beats = list.data();

            // Pass 1: count the valid slots of each PE's segment and
            // grow the arena by exactly that much. The beat list is
            // then cache-resident for the second pass.
            std::fill(count, count + pes_, 0);
            for (std::size_t t = 0; t < list.size(); ++t) {
                for (unsigned p = 0; p < pes_; ++p)
                    count[p] += beats[t].slots[p].valid ? 1 : 0;
            }
            const std::size_t first = offsets_.size();
            std::size_t end = arena_.size();
            for (unsigned p = 0; p < pes_; ++p) {
                offsets_.push_back(static_cast<std::uint32_t>(end));
                end += count[p];
            }
            chason_assert(end <= std::numeric_limits<std::uint32_t>::max(),
                          "%zu slots overflow the plan's 32-bit offsets",
                          end);
            arena_.resize(end);
            for (unsigned p = 0; p < pes_; ++p)
                out[p] = arena_.data() + offsets_[first + p];

            // Pass 2: route, check and fill.
            const std::uint32_t win_base = phase.window * sc.windowCols;
            const std::uint32_t win_len = std::min<std::uint32_t>(
                sc.windowCols, schedule.cols - win_base);
            const SlotRouter router(sc, migration_depth, win_base,
                                    win_len);
            for (std::size_t t = 0; t < list.size(); ++t) {
                for (unsigned p = 0; p < pes_; ++p) {
                    const sched::Slot &slot = beats[t].slots[p];
                    if (!slot.valid)
                        continue;
                    const SlotRoute r = router.route(slot, ch, p);
                    stamps.stamp(p, r.bank, r.addr,
                                 beat_base + static_cast<std::int64_t>(t),
                                 sc.rawDistance);
                    *out[p]++ = {slot.value, r.winCol,
                                 static_cast<std::uint32_t>(r.bank)
                                         << kAddrBits |
                                     r.addr};
                }
            }
            beat_base += static_cast<std::int64_t>(phase.alignedBeats) +
                sc.rawDistance;
        }
    }
    offsets_.push_back(static_cast<std::uint32_t>(arena_.size()));
    arena_.shrink_to_fit(); // a no-op unless nnz miscounted the slots
}

std::size_t
StreamPlan::bytesFor(const sched::Schedule &schedule)
{
    const std::size_t segments = schedule.phases.size() *
        schedule.config.channels * schedule.config.pesPerGroup();
    return sizeof(PlannedSlot) * schedule.nnz +
        sizeof(std::uint32_t) * (segments + 1);
}

std::size_t
StreamPlan::memoryBytes() const
{
    return sizeof(PlannedSlot) * arena_.capacity() +
        sizeof(std::uint32_t) * offsets_.capacity();
}

void
StreamPlan::replay(std::size_t phase, unsigned ch, const XWindowBuffer &x,
                   Peg &peg) const
{
    const float *win = x.data();
    const std::uint32_t *offset =
        offsets_.data() + (ch * phaseCount_ + phase) * pes_;
    // chason-lint: begin-hot (the replay every run takes: one product
    // and one unchecked add per non-zero, read linearly from the arena)
    for (unsigned p = 0; p < pes_; ++p) {
        AccumulatorBank *banks = peg.pe(p).banks();
        const PlannedSlot *end = arena_.data() + offset[p + 1];
        for (const PlannedSlot *s = arena_.data() + offset[p]; s != end;
             ++s) {
            banks[s->bankAddr >> kAddrBits].add(
                s->bankAddr & kAddrMask, s->value * win[s->winCol]);
        }
    }
    // chason-lint: end-hot
}

bool
StreamPlan::matches(const sched::Schedule &schedule,
                    unsigned migration_depth) const
{
    return channels_ == schedule.config.channels &&
        pes_ == schedule.config.pesPerGroup() &&
        migrationDepth_ == migration_depth &&
        phaseCount_ == schedule.phases.size() && nnz_ == schedule.nnz;
}

} // namespace arch
} // namespace chason
