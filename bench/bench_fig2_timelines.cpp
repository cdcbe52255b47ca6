/**
 * @file
 * Figure 2 — PE0 pipeline timelines under the three scheduling schemes.
 *
 * Rebuilds the paper's worked example (one channel, four PEs, 10-cycle
 * accumulator, the Fig. 1 matrix) and prints PE0's issue timeline plus
 * the throughput / underutilization numbers quoted in the figure:
 * row-based ~0.10 nz/cycle, PE-aware ~0.60, CrHCS ~1.00.
 */

#include <cstdio>
#include <utility>

#include "arch/pipeline.h"
#include "sched/analyzer.h"
#include "sched/crhcs.h"
#include "sched/pe_aware.h"
#include "sched/row_based.h"
#include "support.h"

namespace {

using namespace chason;

sched::SchedConfig
fig2Config(unsigned migration_depth)
{
    sched::SchedConfig cfg;
    cfg.channels = 2; // channel 0 is the observed one; channel 1 donates
    cfg.pesOverride = 4;
    cfg.rawDistance = 10;
    cfg.windowCols = 128;
    cfg.rowsPerLanePerPass = 128;
    cfg.migrationDepth = migration_depth;
    return cfg;
}

/** Fig. 1's channel-0 rows plus channel-1 rows that CrHCS can migrate. */
sparse::CsrMatrix
fig1Matrix()
{
    sparse::CooMatrix coo(96, 8);
    auto add_row = [&coo](std::uint32_t row, unsigned count) {
        for (unsigned c = 0; c < count; ++c)
            coo.add(row, c, static_cast<float>(row * 10 + c + 1));
    };
    // Channel 0 (lanes 0..3): rows 0,8,16,24,... carry the Fig. 1
    // pattern on PE0: (3,1,2,2) non-zeros, then empty rows.
    add_row(0, 3);
    add_row(8, 1);
    add_row(16, 2);
    add_row(24, 2);
    // Channel 1 (lanes 4..7): plentiful single-element rows (Fig. 2c's
    // i8..i11 instructions come from here).
    for (std::uint32_t r = 4; r < 96; r += 8) {
        add_row(r, 2);
        add_row(r + 1, 1);
        add_row(r + 2, 1);
        add_row(r + 3, 1);
    }
    return std::move(coo).toCsr();
}

void
printTimeline(const char *name, const sched::Schedule &sch)
{
    const sched::ScheduleStats stats = sched::analyze(sch);
    std::printf("\n--- %s ---\n", name);
    if (sch.phases.empty()) {
        std::printf("(empty schedule)\n");
        return;
    }
    const auto &ch0 = sch.phases[0].channels[0];
    std::printf("PE0 issue timeline (beat: row, '.' = stall):\n  ");
    const std::size_t show = std::min<std::size_t>(ch0.length(), 32);
    for (std::size_t t = 0; t < show; ++t) {
        const sched::Slot &slot = ch0.beats[t].slots[0];
        if (slot.valid) {
            std::printf("r%u%s ", slot.row, slot.pvt ? "" : "*");
        } else {
            std::printf(".  ");
        }
    }
    if (ch0.length() > show)
        std::printf("... (%zu beats total)", ch0.length());
    std::printf("\n");

    // PE0-of-channel-0 throughput, the figure's headline number.
    std::size_t pe0_valid = 0;
    for (const sched::Beat &beat : ch0.beats)
        pe0_valid += beat.slots[0].valid ? 1 : 0;
    const double tput = ch0.length() == 0
        ? 0.0
        : static_cast<double>(pe0_valid) /
            static_cast<double>(ch0.length());
    std::printf("PE0 throughput: %.2f non-zeros/cycle  "
                "(underutilization %.0f%%)\n",
                tput, 100.0 * (1.0 - tput));
    std::printf("whole-fabric underutilization (Eq. 4): %.1f%%, aligned "
                "beats: %zu\n",
                stats.underutilizationPercent,
                stats.streamBeatsPerChannel);

    // The Fig. 2 stage table: instructions flowing through the
    // 10-stage accumulator ('i' marks migrated instructions).
    const arch::PipelineTrace trace =
        arch::tracePipeline(sch, 0, 0, 0, /*max_cycles=*/24);
    std::printf("%s", trace.toString().c_str());
}

} // namespace

int
main()
{
    bench::printHeader("Fig. 2 — scheduling scheme timelines",
                       "Figure 2a/2b/2c (Section 2.2, Section 3)");
    const sparse::CsrMatrix a = fig1Matrix();
    std::printf("matrix: %s ('*' marks migrated non-zeros)\n",
                a.describe().c_str());

    printTimeline("row-based (Fig. 2a)",
                  sched::RowBasedScheduler(fig2Config(0)).schedule(a));
    printTimeline("PE-aware / Serpens (Fig. 2b)",
                  sched::PeAwareScheduler(fig2Config(0)).schedule(a));
    printTimeline("CrHCS / Chasoň (Fig. 2c)",
                  sched::CrhcsScheduler(fig2Config(1)).schedule(a));
    return 0;
}
