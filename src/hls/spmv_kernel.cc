/**
 * @file
 * Dataflow SpMV kernel implementation.
 */

#include "hls/spmv_kernel.h"

#include <algorithm>
#include <memory>

#include "common/logging.h"
#include "hls/tapa_stub.h"

namespace chason {
namespace hls {

namespace {

/** Token on the per-channel A stream. */
struct AToken
{
    enum class Kind
    {
        PhaseStart, ///< window/pass header
        Beat,       ///< one 512-bit line of the channel's data list
        PassEnd,    ///< drain: reduce and emit
    };

    Kind kind = Kind::Beat;
    sched::Beat beat{};
    std::uint32_t pass = 0;
    std::uint32_t window = 0;
};

/** Per-pass lane sums a PEG hands to the Merger. */
struct LaneSums
{
    std::uint32_t pass = 0;
    // [pe][addr]: private partial sums of this channel's lanes.
    std::vector<std::vector<float>> pvt;
    // [src_pe][addr]: reduced shared sums for the next channel's lanes.
    std::vector<std::vector<float>> reduced;
};

/** The reader task: streams one channel's data lists, phase by phase. */
void
readerTask(const sched::Schedule &schedule, unsigned channel,
           Stream<AToken> &out)
{
    std::int64_t current_pass = -1;
    for (const sched::WindowSchedule &phase : schedule.phases) {
        if (static_cast<std::int64_t>(phase.pass) != current_pass) {
            if (current_pass >= 0) {
                AToken end;
                end.kind = AToken::Kind::PassEnd;
                out.write(end);
            }
            current_pass = phase.pass;
        }
        AToken header;
        header.kind = AToken::Kind::PhaseStart;
        header.pass = phase.pass;
        header.window = phase.window;
        out.write(header);
        for (const sched::Beat &beat : phase.channels[channel].beats) {
            AToken token;
            token.kind = AToken::Kind::Beat;
            token.beat = beat;
            out.write(token);
        }
    }
    if (current_pass >= 0) {
        AToken end;
        end.kind = AToken::Kind::PassEnd;
        out.write(end);
    }
    out.close();
}

/**
 * The PEG task: MACs beats into its URAM banks, and on PassEnd sweeps
 * the ScUGs through the (pairwise) adder tree and emits the lane sums.
 */
void
pegTask(const sched::Schedule &schedule, unsigned channel,
        const std::vector<float> &x, Stream<AToken> &in,
        Stream<LaneSums> &out)
{
    const sched::SchedConfig &sc = schedule.config;
    const sched::LaneMap map(sc);
    const unsigned pes = sc.pesPerGroup();

    std::uint32_t depth = 0;
    std::uint32_t current_pass = 0;
    // pvt[pe][addr]; sh[pe][src_pe][addr].
    std::vector<std::vector<float>> pvt;
    std::vector<std::vector<std::vector<float>>> sh;

    auto reset_banks = [&](std::uint32_t pass) {
        depth = sched::passDepth(schedule, pass);
        pvt.assign(pes, std::vector<float>(depth, 0.0f));
        sh.assign(pes, std::vector<std::vector<float>>(
                           pes, std::vector<float>(depth, 0.0f)));
    };

    bool banks_ready = false;
    for (;;) {
        const std::optional<AToken> token = in.read();
        if (!token)
            break;
        switch (token->kind) {
          case AToken::Kind::PhaseStart:
            if (!banks_ready || token->pass != current_pass) {
                current_pass = token->pass;
                reset_banks(current_pass);
                banks_ready = true;
            }
            break;
          case AToken::Kind::Beat:
            for (unsigned p = 0; p < pes; ++p) {
                const sched::Slot &slot = token->beat.slots[p];
                if (!slot.valid)
                    continue;
                const float product = slot.value * x[slot.col];
                const std::uint32_t addr =
                    map.localRowOf(slot.row) % sc.rowsPerLanePerPass;
                chason_assert(addr < depth, "URAM address overflow");
                if (slot.pvt) {
                    pvt[p][addr] += product;
                } else {
                    chason_assert(
                        slot.chSrc == (channel + 1) % sc.channels,
                        "dataflow kernel supports depth-1 migration");
                    sh[p][slot.peSrc][addr] += product;
                }
            }
            break;
          case AToken::Kind::PassEnd: {
            // Reduction Unit: pairwise tree over the pes ScUG banks for
            // each source PE (same association as the hardware tree).
            LaneSums sums;
            sums.pass = current_pass;
            sums.pvt = pvt;
            sums.reduced.assign(pes, std::vector<float>(depth, 0.0f));
            for (unsigned k = 0; k < pes; ++k) {
                std::vector<std::vector<float>> stage;
                stage.reserve(pes);
                for (unsigned p = 0; p < pes; ++p)
                    stage.push_back(sh[p][k]);
                while (stage.size() > 1) {
                    std::vector<std::vector<float>> next;
                    for (std::size_t i = 0; i + 1 < stage.size(); i += 2) {
                        std::vector<float> merged(depth);
                        for (std::uint32_t a = 0; a < depth; ++a)
                            merged[a] = stage[i][a] + stage[i + 1][a];
                        next.push_back(std::move(merged));
                    }
                    if (stage.size() % 2 == 1)
                        next.push_back(std::move(stage.back()));
                    stage = std::move(next);
                }
                sums.reduced[k] = std::move(stage.front());
            }
            out.write(std::move(sums));
            banks_ready = false;
            break;
          }
        }
    }
    out.close();
}

/** The Merger: per pass, combine all 16 PEGs' sums into y. */
void
mergerTask(const sched::Schedule &schedule,
           std::vector<std::unique_ptr<Stream<LaneSums>>> &ins,
           std::vector<float> &y)
{
    const sched::SchedConfig &sc = schedule.config;
    const sched::LaneMap map(sc);
    const unsigned pes = sc.pesPerGroup();

    for (;;) {
        // One LaneSums per channel per pass, in channel order (the
        // Arbiter's round robin).
        std::vector<LaneSums> round;
        round.reserve(sc.channels);
        for (unsigned ch = 0; ch < sc.channels; ++ch) {
            std::optional<LaneSums> sums = ins[ch]->read();
            if (!sums) {
                chason_assert(ch == 0, "PEG streams ended out of sync");
                return; // all streams drained together
            }
            round.push_back(std::move(*sums));
        }

        const std::uint32_t pass = round.front().pass;
        const std::uint32_t local_base = pass * sc.rowsPerLanePerPass;
        const std::uint32_t depth = sched::passDepth(schedule, pass);
        for (unsigned s = 0; s < sc.channels; ++s) {
            chason_assert(round[s].pass == pass, "pass skew in merger");
            // Shared sums for channel s were computed one channel back.
            const unsigned dest = (s + sc.channels - 1) % sc.channels;
            for (unsigned k = 0; k < pes; ++k) {
                for (std::uint32_t a = 0; a < depth; ++a) {
                    float value = round[s].pvt[k][a];
                    if (sc.channels > 1)
                        value += round[dest].reduced[k][a];
                    const std::uint32_t row =
                        map.globalRowOf(s, k, local_base + a);
                    if (row < schedule.rows)
                        y[row] = value;
                }
            }
        }
    }
}

} // namespace

std::vector<float>
runDataflowSpmv(const sched::Schedule &schedule,
                const std::vector<float> &x)
{
    const sched::SchedConfig &sc = schedule.config;
    chason_assert(sc.migrationDepth <= 1,
                  "dataflow kernel implements the paper's depth-1 design");
    chason_assert(x.size() == schedule.cols, "x size mismatch");

    std::vector<float> y(schedule.rows, 0.0f);
    if (schedule.phases.empty())
        return y;

    std::vector<std::unique_ptr<Stream<AToken>>> a_streams;
    std::vector<std::unique_ptr<Stream<LaneSums>>> sum_streams;
    for (unsigned ch = 0; ch < sc.channels; ++ch) {
        a_streams.push_back(std::make_unique<Stream<AToken>>(64));
        sum_streams.push_back(std::make_unique<Stream<LaneSums>>(2));
    }

    TaskGroup tasks;
    for (unsigned ch = 0; ch < sc.channels; ++ch) {
        Stream<AToken> &a_stream = *a_streams[ch];
        Stream<LaneSums> &sum_stream = *sum_streams[ch];
        tasks.invoke([&schedule, ch, &a_stream] {
            readerTask(schedule, ch, a_stream);
        });
        tasks.invoke([&schedule, ch, &x, &a_stream, &sum_stream] {
            pegTask(schedule, ch, x, a_stream, sum_stream);
        });
    }
    tasks.invoke([&schedule, &sum_streams, &y] {
        mergerTask(schedule, sum_streams, y);
    });
    tasks.join();
    return y;
}

} // namespace hls
} // namespace chason
