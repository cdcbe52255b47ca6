/**
 * @file
 * The timing model and the shared streaming simulation core.
 */

#include "arch/accelerator.h"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "arch/frequency.h"
#include "arch/stream_soa.h"
#include "common/logging.h"
#include "trace/trace.h"

namespace chason {
namespace arch {

namespace {

/** FP32 words carried by one 512-bit beat of a dense stream. */
constexpr std::uint32_t kDenseWordsPerBeat = 16;

std::uint64_t
denseBeats(std::uint64_t words)
{
    return (words + kDenseWordsPerBeat - 1) / kDenseWordsPerBeat;
}

/**
 * Emit one device span onto the simulated-cycle timeline. Spans with
 * zero duration are dropped: they carry no cycles, and skipping them
 * keeps traces compact without affecting the attribution sums.
 */
void
deviceSpan(trace::TraceSink *sink, const char *name, trace::Category cat,
           std::uint32_t track, std::uint64_t begin, std::uint64_t dur,
           const char *arg_name0 = nullptr, std::uint64_t arg0 = 0,
           const char *arg_name1 = nullptr, std::uint64_t arg1 = 0)
{
    if (!sink || dur == 0)
        return;
    trace::SpanEvent span;
    span.name = name;
    span.cat = cat;
    span.track = track;
    span.device = true;
    span.begin = static_cast<double>(begin);
    span.dur = static_cast<double>(dur);
    span.argName0 = arg_name0;
    span.argVal0 = arg0;
    span.argName1 = arg_name1;
    span.argVal1 = arg1;
    sink->recordSpan(std::move(span));
}

/**
 * Reuse pool for PEG sets. Every runPlanned call needs a fully reset
 * PEG per channel; constructing them fresh allocates and page-faults
 * tens of MB of bank storage per run, which dominated repeated-run
 * simulation cost. Released sets keep their bank storage; on
 * reacquisition Peg::reset clears only the banks the previous run
 * actually wrote, so a pooled set is bit-identical to a freshly
 * constructed one.
 */
class PegSetPool
{
  public:
    static std::vector<Peg>
    acquire(const sched::SchedConfig &sc, unsigned migration_depth)
    {
        {
            std::lock_guard<std::mutex> lock(mutex());
            auto &sets = freeSets();
            for (std::size_t i = 0; i < sets.size(); ++i) {
                if (sets[i].channels == sc.channels &&
                    sets[i].pes == sc.pesPerGroup() &&
                    sets[i].depth == migration_depth) {
                    std::vector<Peg> pegs = std::move(sets[i].pegs);
                    sets.erase(sets.begin() +
                               static_cast<std::ptrdiff_t>(i));
                    return pegs;
                }
            }
        }
        std::vector<Peg> pegs;
        pegs.reserve(sc.channels);
        for (unsigned ch = 0; ch < sc.channels; ++ch)
            pegs.emplace_back(sc, migration_depth);
        return pegs;
    }

    static void
    release(const sched::SchedConfig &sc, unsigned migration_depth,
            std::vector<Peg> &&pegs)
    {
        std::lock_guard<std::mutex> lock(mutex());
        auto &sets = freeSets();
        if (sets.size() >= kMaxPooled)
            return; // drop: bounded cache, not a leak
        sets.push_back(
            {sc.channels, sc.pesPerGroup(), migration_depth,
             std::move(pegs)});
    }

  private:
    struct Entry
    {
        unsigned channels;
        unsigned pes;
        unsigned depth;
        std::vector<Peg> pegs;
    };

    static constexpr std::size_t kMaxPooled = 4;

    static std::mutex &
    mutex()
    {
        static std::mutex m;
        return m;
    }

    static std::vector<Entry> &
    freeSets()
    {
        static std::vector<Entry> sets;
        return sets;
    }
};

/** RAII lease so PEG sets return to the pool on every exit path. */
struct PegSetLease
{
    PegSetLease(const sched::SchedConfig &sc, unsigned migration_depth)
        : sc_(sc), depth_(migration_depth),
          pegs(PegSetPool::acquire(sc, migration_depth))
    {
    }

    ~PegSetLease()
    {
        PegSetPool::release(sc_, depth_, std::move(pegs));
    }

    const sched::SchedConfig &sc_;
    unsigned depth_;
    std::vector<Peg> pegs;
};

} // namespace

std::uint32_t
ArchConfig::capacityRowsPerLane() const
{
    // One URAM bank: 4096 deep x 72 bit, two FP32 partial sums per slot.
    constexpr std::uint32_t kRowsPerUram = 8192;
    // URAM_pvt is a full URAM; logical shared banks fold scugSize
    // physical URAMs over pesPerGroup() logical banks.
    const std::uint32_t shared_rows = static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(kRowsPerUram) * scugSize /
        sched.pesPerGroup());
    if (sched.migrationDepth == 0)
        return kRowsPerUram;
    return std::min(kRowsPerUram, shared_rows);
}

void
ArchConfig::validate() const
{
    sched.validate();
    chason_assert(usedChannels() <= hbm.totalChannels,
                  "design needs %u channels, platform has %u",
                  usedChannels(), hbm.totalChannels);
    chason_assert(scugSize >= 1 && scugSize <= sched.pesPerGroup(),
                  "scugSize %u out of [1,%u]", scugSize,
                  sched.pesPerGroup());
    chason_assert(sched.rowsPerLanePerPass <= capacityRowsPerLane(),
                  "pass height %u exceeds URAM capacity %u",
                  sched.rowsPerLanePerPass, capacityRowsPerLane());
}

Accelerator::Accelerator(const ArchConfig &config) : config_(config)
{
    config_.validate();
}

double
Accelerator::frequencyMhz() const
{
    return FrequencyModel().achievedMhz(
        migrationDepth() == 0 ? MemoryTopology::SingleUramPerPe
                              : MemoryTopology::DistributedUramGroup);
}

RunResult
Accelerator::run(const sched::Schedule &schedule,
                 const std::vector<float> &x,
                 const SpmvParams &params) const
{
    return runPlanned(schedule, StreamPlan(schedule, migrationDepth()), x,
                      params);
}

Timeline
Accelerator::timeline(const sched::Schedule &schedule,
                      trace::TraceSink *sink) const
{
    const sched::SchedConfig &sc = schedule.config;
    chason_assert(sc.channels == config_.sched.channels &&
                      sc.pesPerGroup() == config_.sched.pesPerGroup(),
                  "schedule geometry does not match the architecture");
    const unsigned migration_depth = migrationDepth();
    const double freq = frequencyMhz();
    const double mem_factor = memoryStallFactor(config_.hbm, freq);

    Timeline tl(config_.hbm);
    tl.memStallFactor = mem_factor;
    CycleBreakdown &cycles = tl.cycles;
    // sim_now is the span cursor on the simulated-cycle timeline; it
    // advances exactly in step with the CycleBreakdown accumulation so
    // the attribution invariant (trace/attribution.h) holds by
    // construction.
    std::uint64_t sim_now = 0;

    // Drain of a finished pass. The Reduction Unit sweep (one address
    // per cycle per PEG, pes x depth x distances) feeds the
    // Re-order/Arbiter/Merger pipeline that writes y, so the two
    // overlap: the exposed time is max(sweep, y write) plus the
    // adder-tree latency. Serpens drains through the same y write
    // without a reduction stage.
    auto finish_pass = [&](std::uint32_t pass) {
        const std::uint64_t y_beats =
            denseBeats(sched::passRows(schedule, pass));
        const std::uint64_t y_cycles = streamCycles(y_beats, mem_factor);
        tl.traffic.recordBeats(config_.yChannel(), hbm::Direction::Write,
                               y_beats);
        cycles.writeback += y_cycles;
        deviceSpan(sink, "y_writeback", trace::Category::Writeback,
                   trace::kTrackSequencer, sim_now, y_cycles, "pass",
                   pass, "y_beats", y_beats);
        sim_now += y_cycles;
        if (migration_depth > 0) {
            const std::uint64_t sweep =
                static_cast<std::uint64_t>(sc.pesPerGroup()) *
                sched::passDepth(schedule, pass) * migration_depth;
            const std::uint64_t red_cycles =
                (sweep > y_cycles ? sweep - y_cycles : 0) +
                config_.timing.reductionTreeLatency;
            cycles.reduction += red_cycles;
            deviceSpan(sink, "scug_reduction", trace::Category::Reduction,
                       trace::kTrackSequencer, sim_now, red_cycles,
                       "pass", pass, "sweep_addresses", sweep);
            sim_now += red_cycles;
        }
    };

    std::int64_t current_pass = -1;
    for (std::size_t phase_idx = 0; phase_idx < schedule.phases.size();
         ++phase_idx) {
        const sched::WindowSchedule &phase = schedule.phases[phase_idx];
        if (static_cast<std::int64_t>(phase.pass) != current_pass) {
            if (current_pass >= 0)
                finish_pass(static_cast<std::uint32_t>(current_pass));
            current_pass = phase.pass;
        }

        // Dense-vector window load (one channel, broadcast to all
        // PEGs). The load of window w+1 is double-buffered behind the
        // streaming of window w in the dataflow design, so only the
        // first window's load — and any excess over the matrix stream —
        // costs wall-clock cycles.
        const std::uint32_t win_len = std::min<std::uint32_t>(
            sc.windowCols, schedule.cols - phase.window * sc.windowCols);
        const std::uint64_t x_beats = denseBeats(win_len);
        tl.traffic.recordBeats(config_.xChannel(), hbm::Direction::Read,
                               x_beats);
        const std::uint64_t x_cycles = streamCycles(x_beats, mem_factor);
        const std::uint64_t stream_cycles =
            streamCycles(phase.alignedBeats, mem_factor);
        std::uint64_t exposed_x = 0;
        if (phase_idx == 0)
            exposed_x = x_cycles;
        else if (x_cycles > stream_cycles)
            exposed_x = x_cycles - stream_cycles;
        cycles.xLoad += exposed_x;
        deviceSpan(sink, "x_window_load", trace::Category::XLoad,
                   trace::kTrackSequencer, sim_now, exposed_x, "window",
                   phase.window, "x_beats", x_beats);
        sim_now += exposed_x;

        // Matrix streaming: all channels in lockstep for alignedBeats.
        for (unsigned ch = 0; ch < sc.channels; ++ch) {
            tl.traffic.recordBeats(ch, hbm::Direction::Read,
                                   phase.alignedBeats);

            // Per-PEG busy/stall split of this phase's streaming
            // window. A beat is busy when the channel's own list has a
            // valid slot in it; the lockstep padding up to alignedBeats
            // and all-stall beats are the stalls CrHCS exists to fill
            // (Fig. 2). busy + stall == stream_cycles exactly, so each
            // PEG track sums to CycleBreakdown::matrixStream.
            if (sink) {
                std::uint64_t busy_beats = 0;
                std::uint64_t valid_slots = 0;
                for (const sched::Beat &beat : phase.channels[ch].beats) {
                    const unsigned valid =
                        beat.validCount(sc.pesPerGroup());
                    busy_beats += valid > 0 ? 1 : 0;
                    valid_slots += valid;
                }
                const std::uint64_t busy = std::min(
                    streamCycles(busy_beats, mem_factor), stream_cycles);
                const std::uint64_t stall = stream_cycles - busy;
                deviceSpan(sink, "stream_busy",
                           trace::Category::MatrixStream, ch, sim_now,
                           busy, "valid_slots", valid_slots, "beats",
                           busy_beats);
                deviceSpan(sink, "stream_stall",
                           trace::Category::MatrixStream, ch,
                           sim_now + busy, stall, "stall_beats",
                           phase.alignedBeats - busy_beats);
            }
        }
        cycles.matrixStream += stream_cycles;
        sim_now += stream_cycles;
        cycles.pipelineFill += config_.timing.pipelineFillCycles;
        deviceSpan(sink, "window_switch", trace::Category::PipelineFill,
                   trace::kTrackSequencer, sim_now,
                   config_.timing.pipelineFillCycles, "pass", phase.pass,
                   "window", phase.window);
        sim_now += config_.timing.pipelineFillCycles;

        // One descriptor beat on the instruction channel per phase.
        tl.traffic.recordBeats(config_.instChannel(), hbm::Direction::Read,
                               1);
        cycles.instStream += 1;
        deviceSpan(sink, "descriptor", trace::Category::InstStream,
                   trace::kTrackSequencer, sim_now, 1);
        sim_now += 1;
    }
    if (current_pass >= 0)
        finish_pass(static_cast<std::uint32_t>(current_pass));

    cycles.launch = static_cast<std::uint64_t>(
        std::ceil(config_.timing.launchOverheadUs * freq));
    deviceSpan(sink, "kernel_launch", trace::Category::Launch,
               trace::kTrackSequencer, sim_now, cycles.launch);

    tl.latencyUs = static_cast<double>(cycles.total()) / freq;
    return tl;
}

RunResult
Accelerator::runPlanned(const sched::Schedule &schedule,
                        const StreamPlan &plan, const std::vector<float> &x,
                        const SpmvParams &params) const
{
    const unsigned migration_depth = migrationDepth();
    chason_assert(plan.matches(schedule, migration_depth),
                  "stream plan was built for a different schedule or "
                  "migration depth");
    const sched::SchedConfig &sc = schedule.config;
    const bool reads_y = params.beta != 0.0f;
    chason_assert(!reads_y ||
                      (params.yIn && params.yIn->size() == schedule.rows),
                  "beta != 0 requires a y_in of %u entries",
                  schedule.rows);

    // Cycles, traffic and device spans come from the schedule alone.
    // Tracing: the sink is null (and folded away under
    // -DCHASON_TRACE=OFF) unless the calling thread is inside a
    // trace::ScopedSink.
    Timeline tl = timeline(schedule, trace::activeSink());
    chason_assert(x.size() == schedule.cols,
                  "x has %zu entries, schedule expects %u", x.size(),
                  schedule.cols);
    // A schedule whose slots migrate farther than the datapath's shared
    // banks reach was rejected when the plan was built.

    RunResult result;
    result.cycles = tl.cycles;
    result.traffic = std::move(tl.traffic);
    result.latencyUs = tl.latencyUs;
    result.memStallFactor = tl.memStallFactor;
    result.y.assign(schedule.rows, 0.0f);

    const sched::LaneMap map(sc);
    PegSetLease lease(sc, migration_depth);
    std::vector<Peg> &pegs = lease.pegs;

    XWindowBuffer xbuf;

    // Merge partial sums of a finished pass into y. The two scratch
    // vectors are hoisted out of the per-(channel, PE) loop and the
    // bank reads go through the raw sum storage — same additions in
    // the same order, no per-lane allocation.
    std::vector<float> lane_sum;
    std::vector<float> reduced;
    auto finish_pass = [&](std::uint32_t pass) {
        const std::uint32_t depth = sched::passDepth(schedule, pass);
        const std::uint32_t local_base = pass * sc.rowsPerLanePerPass;

        // Consolidated shared sums: [source channel][source PE] -> rows.
        for (unsigned s = 0; s < sc.channels; ++s) {
            for (unsigned k = 0; k < sc.pesPerGroup(); ++k) {
                const float *pvt = pegs[s].pe(k).pvt().data();
                lane_sum.assign(pvt, pvt + depth);
                for (unsigned off = 1; off <= migration_depth; ++off) {
                    const unsigned dest =
                        (s + sc.channels - off) % sc.channels;
                    if (dest == s)
                        break;
                    reduced.resize(depth);
                    if (!pegs[dest].reduceSharedInto(off, k,
                                                     reduced.data()))
                        continue; // all +0.0: adding them is exact
                    for (std::uint32_t a = 0; a < depth; ++a)
                        lane_sum[a] += reduced[a];
                }
                for (std::uint32_t a = 0; a < depth; ++a) {
                    const std::uint32_t row =
                        map.globalRowOf(s, k, local_base + a);
                    if (row < schedule.rows) {
                        // Dense Vector Kernels unit: alpha/beta blend.
                        float value = params.alpha * lane_sum[a];
                        if (reads_y)
                            value += params.beta * (*params.yIn)[row];
                        result.y[row] = value;
                    }
                }
            }
        }

        // A beta != 0 call also streams the previous y in; the read is
        // independent of the matrix data and prefetches behind the
        // streaming phases, so it costs traffic but no exposed cycles.
        if (reads_y) {
            result.traffic.recordBeats(
                config_.yChannel(), hbm::Direction::Read,
                denseBeats(sched::passRows(schedule, pass)));
        }
    };

    std::int64_t current_pass = -1;
    for (std::size_t phase_idx = 0; phase_idx < schedule.phases.size();
         ++phase_idx) {
        const sched::WindowSchedule &phase = schedule.phases[phase_idx];
        if (static_cast<std::int64_t>(phase.pass) != current_pass) {
            if (current_pass >= 0)
                finish_pass(static_cast<std::uint32_t>(current_pass));
            current_pass = phase.pass;
            const std::uint32_t depth =
                sched::passDepth(schedule, phase.pass);
            for (Peg &peg : pegs)
                peg.reset(depth);
        }

        const std::uint32_t col_base = phase.window * sc.windowCols;
        const std::uint32_t win_len = std::min<std::uint32_t>(
            sc.windowCols, schedule.cols - col_base);
        xbuf.load(x, col_base, win_len);

        // chason-lint: begin-hot (per-channel streaming loop: the
        // simulator's steady-state path must not allocate)
        for (unsigned ch = 0; ch < sc.channels; ++ch)
            plan.replay(phase_idx, ch, xbuf, pegs[ch]);
        // chason-lint: end-hot
    }
    if (current_pass >= 0)
        finish_pass(static_cast<std::uint32_t>(current_pass));
    return result;
}

} // namespace arch
} // namespace chason
