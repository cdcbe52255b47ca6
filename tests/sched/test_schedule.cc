/**
 * @file
 * Unit tests for the schedule containers, phase bucketing and the §3.2
 * wire encoding: every scheduler's schedule, migrated elements
 * included, decodes to the same slots, stays verifier-clean and
 * simulates identically; a depth-2 schedule is not encodable.
 */

#include "sched/schedule.h"

#include <gtest/gtest.h>

#include <utility>

#include "arch/chason_accel.h"
#include "common/rng.h"
#include "sched/analyzer.h"
#include "sched/crhcs.h"
#include "sched/pe_aware.h"
#include "sched/row_based.h"
#include "sparse/generators.h"
#include "support/schedule_equal.h"
#include "verify/verifier.h"

namespace chason {
namespace sched {
namespace {

SchedConfig
tinyConfig()
{
    SchedConfig cfg;
    cfg.channels = 4;
    cfg.pesOverride = 2;
    cfg.rawDistance = 3;
    cfg.windowCols = 16;
    cfg.rowsPerLanePerPass = 8;
    cfg.migrationDepth = 1;
    return cfg;
}

TEST(LaneMap, RoundTrip)
{
    SchedConfig cfg = tinyConfig();
    const LaneMap map(cfg);
    EXPECT_EQ(map.lanes(), 8u);
    for (std::uint32_t row = 0; row < 100; ++row) {
        const unsigned ch = map.channelOf(row);
        const unsigned pe = map.peOf(row);
        const std::uint32_t local = map.localRowOf(row);
        EXPECT_LT(ch, cfg.channels);
        EXPECT_LT(pe, cfg.pesPerGroup());
        EXPECT_EQ(map.globalRowOf(ch, pe, local), row);
    }
}

TEST(LaneMap, PaperEquationExample)
{
    // Eq. 1: PE_id = row % TotalPEs; Fig. 1 uses 4 PEs on one channel.
    SchedConfig cfg;
    cfg.channels = 1;
    cfg.pesOverride = 4;
    const LaneMap map(cfg);
    EXPECT_EQ(map.peOf(0), 0u);
    EXPECT_EQ(map.peOf(1), 1u);
    EXPECT_EQ(map.peOf(4), 0u);
    EXPECT_EQ(map.peOf(12), 0u);
}

TEST(SchedConfig, PrecisionSelectsPes)
{
    SchedConfig cfg;
    EXPECT_EQ(cfg.pesPerGroup(), 8u);
    cfg.precision = Precision::Fp64;
    EXPECT_EQ(cfg.pesPerGroup(), 5u); // Section 5.5
    cfg.pesOverride = 6;
    EXPECT_EQ(cfg.pesPerGroup(), 6u);
}

TEST(SchedConfigDeath, ValidateCatchesBadGeometry)
{
    SchedConfig cfg;
    cfg.channels = 0;
    EXPECT_DEATH(cfg.validate(), "channel");
    cfg = SchedConfig();
    cfg.migrationDepth = 16;
    EXPECT_DEATH(cfg.validate(), "migrationDepth");
}

TEST(Beat, ValidCount)
{
    Beat beat;
    EXPECT_TRUE(beat.allStall(8));
    beat.slots[0].valid = true;
    beat.slots[7].valid = true;
    EXPECT_EQ(beat.validCount(8), 2u);
    EXPECT_EQ(beat.validCount(4), 1u); // only slot 0 within 4 PEs
    EXPECT_FALSE(beat.allStall(8));
}

TEST(ChannelWindowSchedule, TrimTrailingStalls)
{
    ChannelWindowSchedule cws;
    cws.beats.resize(5);
    cws.beats[1].slots[0].valid = true;
    cws.trimTrailingStalls(8);
    EXPECT_EQ(cws.length(), 2u);
    EXPECT_EQ(cws.validSlots(8), 1u);
}

TEST(WindowSchedule, Realign)
{
    WindowSchedule ws;
    ws.channels.resize(3);
    ws.channels[1].beats.resize(7);
    ws.channels[2].beats.resize(4);
    ws.realign();
    EXPECT_EQ(ws.alignedBeats, 7u);
}

TEST(BuildPhaseWork, SplitsByWindowAndLane)
{
    SchedConfig cfg = tinyConfig(); // windows of 16 columns, 8 lanes
    sparse::CooMatrix coo(10, 40);
    coo.add(0, 0, 1.0f);   // window 0, lane 0
    coo.add(0, 20, 2.0f);  // window 1, lane 0
    coo.add(9, 39, 3.0f);  // window 2, lane 1 (9 % 8)
    const sparse::CsrMatrix csr = coo.toCsr();
    const auto work = buildPhaseWork(csr, cfg);
    ASSERT_EQ(work.size(), 3u); // three non-empty windows
    EXPECT_EQ(work[0].window, 0u);
    EXPECT_EQ(work[0].nnz, 1u);
    ASSERT_EQ(work[0].lanes[0].size(), 1u);
    EXPECT_EQ(work[0].lanes[0][0].row, 0u);
    EXPECT_EQ(work[2].window, 2u);
    ASSERT_EQ(work[2].lanes[1].size(), 1u);
    EXPECT_EQ(work[2].lanes[1][0].row, 9u);
}

TEST(BuildPhaseWork, EmptyWindowsOmitted)
{
    SchedConfig cfg = tinyConfig();
    sparse::CooMatrix coo(4, 64); // 4 windows of 16
    coo.add(1, 50, 1.0f);         // only window 3 has work
    const sparse::CsrMatrix csr = coo.toCsr();
    const auto work = buildPhaseWork(csr, cfg);
    ASSERT_EQ(work.size(), 1u);
    EXPECT_EQ(work[0].window, 3u);
}

TEST(BuildPhaseWork, MultiplePasses)
{
    SchedConfig cfg = tinyConfig(); // 8 lanes x 8 rows = 64 rows/pass
    sparse::CooMatrix coo(130, 8);
    coo.add(0, 0, 1.0f);   // pass 0
    coo.add(70, 0, 1.0f);  // pass 1
    coo.add(129, 0, 1.0f); // pass 2
    const sparse::CsrMatrix csr = coo.toCsr();
    const auto work = buildPhaseWork(csr, cfg);
    ASSERT_EQ(work.size(), 3u);
    EXPECT_EQ(work[0].pass, 0u);
    EXPECT_EQ(work[1].pass, 1u);
    EXPECT_EQ(work[2].pass, 2u);
}

TEST(BuildPhaseWork, RowSplitAcrossWindowsKeepsColumnOrder)
{
    SchedConfig cfg = tinyConfig();
    sparse::CooMatrix coo(2, 48);
    for (std::uint32_t c = 0; c < 48; c += 4)
        coo.add(1, c, static_cast<float>(c));
    const sparse::CsrMatrix csr = coo.toCsr();
    const auto work = buildPhaseWork(csr, cfg);
    ASSERT_EQ(work.size(), 3u);
    for (const auto &pw : work) {
        const auto &runs = pw.lanes[1];
        ASSERT_EQ(runs.size(), 1u);
        EXPECT_EQ(runs[0].len, 4u);
        // Slices reference the CSR arrays directly, in column order.
        for (std::uint32_t i = 1; i < runs[0].len; ++i)
            EXPECT_LT(pw.col(runs[0], i - 1), pw.col(runs[0], i));
    }
}

/**
 * The schedule rebuilt from its §3.2 wire encoding: every (phase,
 * channel) stream encoded to 64-bit words and decoded back.
 */
Schedule
wireRoundTrip(const Schedule &original)
{
    Schedule decoded = original;
    for (std::size_t ph = 0; ph < original.phases.size(); ++ph) {
        WindowSchedule &phase = decoded.phases[ph];
        for (unsigned ch = 0; ch < original.config.channels; ++ch) {
            phase.channels[ch] = decodeChannelStream(
                original.config, encodeChannelStream(original, ph, ch),
                phase.pass, phase.window, ch);
        }
    }
    return decoded;
}

// Every scheduler family's schedule, CrHCS migrations included,
// decodes from its wire encoding to the same slots and stays
// verifier-clean, completeness checked against the source matrix.
TEST(EncodeDecode, RoundTripOnRealSchedules)
{
    Rng er_rng(5), arrow_rng(2), zipf_rng(8);
    const sparse::CsrMatrix er =
        sparse::erdosRenyi(500, 500, 4000, er_rng);
    const sparse::CsrMatrix arrow =
        sparse::arrowBanded(800, 6, 0.3, 2, arrow_rng);
    const sparse::CsrMatrix zipf =
        sparse::zipfRows(1200, 1200, 9000, 1.2, zipf_rng);
    SchedConfig wide;
    wide.channels = 16;
    wide.rawDistance = 10;
    SchedConfig serial;
    serial.migrationDepth = 0;
    const std::pair<const sparse::CsrMatrix *, Schedule> inputs[] = {
        {&er, PeAwareScheduler(wide).schedule(er)},
        {&arrow, CrhcsScheduler(SchedConfig{}).schedule(arrow)},
        {&zipf, RowBasedScheduler(serial).schedule(zipf)},
        {&zipf, PeAwareScheduler(serial).schedule(zipf)},
        {&zipf, CrhcsScheduler(SchedConfig{}).schedule(zipf)},
    };

    std::size_t migrated = 0;
    for (const auto &[matrix, original] : inputs) {
        SCOPED_TRACE(original.scheduler);
        ASSERT_FALSE(original.phases.empty());
        for (const WindowSchedule &phase : original.phases)
            for (const ChannelWindowSchedule &ch : phase.channels)
                for (const Beat &beat : ch.beats)
                    for (unsigned p = 0; p < original.config.pesPerGroup();
                         ++p)
                        migrated += beat.slots[p].valid &&
                            !beat.slots[p].pvt;

        const Schedule decoded = wireRoundTrip(original);
        testing_support::expectEqualSchedules(original, decoded);
        verify::VerifyOptions options;
        options.matrix = matrix;
        const verify::VerifyResult result =
            verify::verifySchedule(decoded, options);
        EXPECT_TRUE(result.clean()) << result.summary();
        EXPECT_EQ(result.errors, 0u);
        EXPECT_EQ(result.warnings, 0u);
    }
    // The inputs exercise the pvt = 0 / PE_src encoding.
    EXPECT_GT(migrated, 0u);
}

// The 64-bit format carries everything the datapath needs: a decoded
// schedule simulates to the same y, bit for bit, in the same cycles.
TEST(EncodeDecode, DecodedScheduleSimulatesIdentically)
{
    Rng rng(3);
    const sparse::CsrMatrix a = sparse::arrowBanded(800, 6, 0.3, 2, rng);
    const std::vector<float> x = sparse::randomVector(a.cols(), rng);
    const arch::ArchConfig cfg;
    const Schedule original = CrhcsScheduler(cfg.sched).schedule(a);
    const Schedule decoded = wireRoundTrip(original);

    const arch::ChasonAccelerator accel(cfg);
    const arch::RunResult r1 = accel.run(original, x);
    const arch::RunResult r2 = accel.run(decoded, x);
    EXPECT_EQ(r1.y, r2.y);
    EXPECT_EQ(r1.cycles.total(), r2.cycles.total());
    validateSchedule(decoded, a);
}

TEST(EncodeDecodeDeath, DeepMigrationIsNotEncodable)
{
    Rng rng(7);
    const sparse::CsrMatrix a = sparse::zipfRows(64, 64, 500, 1.3, rng);
    SchedConfig cfg;
    cfg.channels = 8;
    cfg.migrationDepth = 2;
    const Schedule sch = CrhcsScheduler(cfg).schedule(a);
    ASSERT_FALSE(sch.phases.empty());
    EXPECT_DEATH(encodeChannelStream(sch, 0, 0), "immediate next channel");
}

TEST(Schedule, ArtifactBytesMatchAnalyzer)
{
    Rng rng(6);
    const sparse::CsrMatrix a = sparse::arrowBanded(800, 6, 0.3, 2, rng);
    const Schedule sch = CrhcsScheduler(SchedConfig{}).schedule(a);
    EXPECT_EQ(scheduleArtifactBytes(sch), analyze(sch).matrixBytes);
}

TEST(Schedule, GeometryHelpers)
{
    SchedConfig cfg = tinyConfig();
    Schedule sch;
    sch.config = cfg;
    sch.rows = 130;
    sch.cols = 40;
    EXPECT_EQ(sch.windowsPerPass(), 3u);
    EXPECT_EQ(sch.passes(), 3u); // 64 rows per pass
}

} // namespace
} // namespace sched
} // namespace chason
