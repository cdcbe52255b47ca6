/**
 * @file
 * Unit tests for the PEG model (accumulator banks, router, reduction)
 * and for the checks a StreamPlan build runs on hand-built schedules:
 * routing, the bank-depth bound and the RAW distance.
 */

#include "arch/peg.h"
#include "arch/stream_soa.h"

#include <gtest/gtest.h>

namespace chason {
namespace arch {
namespace {

/**
 * The small geometry of test_accelerators.cc: 4 channels x 4 PEs, so
 * row r sits on lane r % 16 = (channel (r % 16) / 4, PE r % 4) at
 * local row r / 16; a pass is 64 rows deep per lane (1024 rows).
 */
sched::SchedConfig
smallGeometry()
{
    sched::SchedConfig cfg;
    cfg.channels = 4;
    cfg.pesOverride = 4;
    cfg.rawDistance = 4;
    cfg.windowCols = 128;
    cfg.rowsPerLanePerPass = 64;
    cfg.migrationDepth = 1;
    return cfg;
}

/** A one-phase schedule of smallGeometry() with no slots yet. */
sched::Schedule
onePhase(std::uint32_t rows = 1024, std::uint32_t cols = 64)
{
    sched::Schedule s;
    s.config = smallGeometry();
    s.rows = rows;
    s.cols = cols;
    s.phases.resize(1);
    s.phases[0].channels.resize(s.config.channels);
    return s;
}

/** Put @p slot on PE @p pe of channel @p ch at beat @p t of phase 0. */
void
put(sched::Schedule &s, unsigned ch, unsigned pe, std::size_t t,
    const sched::Slot &slot)
{
    sched::BeatList &beats = s.phases[0].channels[ch].beats;
    if (beats.size() <= t)
        beats.resize(t + 1);
    beats[t].slots[pe] = slot;
    s.nnz += slot.valid ? 1 : 0;
    s.phases[0].realign();
}

/** A valid private slot of row @p row, streamed by its own lane. */
sched::Slot
privateSlot(std::uint32_t row, float value = 1.0f, std::uint32_t col = 0)
{
    sched::Slot slot;
    slot.valid = true;
    slot.value = value;
    slot.row = row;
    slot.col = col;
    slot.pvt = true;
    slot.chSrc = static_cast<std::uint8_t>((row % 16) / 4);
    slot.peSrc = static_cast<std::uint8_t>(row % 4);
    return slot;
}

/**
 * Plan @p s for @p peg's migration depth, reset @p peg to the pass
 * depth as a run does, and replay channel @p ch against x = @p x.
 */
void
planAndReplay(const sched::Schedule &s, unsigned ch,
              const std::vector<float> &x, Peg &peg)
{
    const StreamPlan plan(s, peg.pe(0).migrationDepth());
    XWindowBuffer buf;
    buf.load(x, 0, s.cols);
    peg.reset(sched::passDepth(s, 0));
    plan.replay(0, ch, buf, peg);
}

TEST(AccumulatorBank, AccumulatesAndReads)
{
    AccumulatorBank bank;
    bank.reset(8);
    EXPECT_FALSE(bank.dirty());
    bank.add(3, 1.5f);
    bank.add(3, 2.0f);
    EXPECT_FLOAT_EQ(bank.value(3), 3.5f);
    EXPECT_FLOAT_EQ(bank.value(0), 0.0f);
    EXPECT_TRUE(bank.dirty());
    bank.reset(8);
    EXPECT_FLOAT_EQ(bank.value(3), 0.0f);
    EXPECT_FALSE(bank.dirty());
}

TEST(AccumulatorBankDeath, ValueBeyondDepthPanics)
{
    AccumulatorBank bank;
    bank.reset(4);
    EXPECT_DEATH(bank.value(9), "depth");
}

TEST(StreamPlanBuildDeath, RawHazardBelowRawDistancePanics)
{
    // Row 0 (lane (0,0), address 0) written at beats 0 and 3: one beat
    // closer than the RAW distance of 4.
    sched::Schedule s = onePhase();
    put(s, 0, 0, 0, privateSlot(0));
    put(s, 0, 0, 3, privateSlot(0));
    EXPECT_DEATH(StreamPlan(s, 1), "RAW hazard at address 0");

    // Four beats apart is exactly the distance the pipeline needs.
    sched::Schedule ok = onePhase();
    put(ok, 0, 0, 0, privateSlot(0, 1.0f));
    put(ok, 0, 0, 4, privateSlot(0, 2.0f));
    Peg peg(ok.config, 1);
    planAndReplay(ok, 0, std::vector<float>(64, 1.0f), peg);
    EXPECT_FLOAT_EQ(peg.pe(0).pvt().value(0), 3.0f);
}

TEST(StreamPlanBuild, DifferentRowOnTheNextBeatIsFine)
{
    // Rows 0 and 16 share lane (0,0) but not an address (0 and 1).
    sched::Schedule s = onePhase();
    put(s, 0, 0, 0, privateSlot(0, 1.0f));
    put(s, 0, 0, 1, privateSlot(16, 2.0f));
    Peg peg(s.config, 1);
    planAndReplay(s, 0, std::vector<float>(64, 1.0f), peg);
    EXPECT_FLOAT_EQ(peg.pe(0).pvt().value(0), 1.0f);
    EXPECT_FLOAT_EQ(peg.pe(0).pvt().value(1), 2.0f);
}

TEST(StreamPlanBuildDeath, AddressBeyondDepthPanics)
{
    // 16 rows make the pass one address deep; row 16 needs address 1.
    sched::Schedule s = onePhase(16);
    put(s, 0, 0, 0, privateSlot(16));
    EXPECT_DEATH(StreamPlan(s, 1), "bank address 1 beyond depth 1");
}

TEST(StreamPlanBuild, ResetLeavesNoStaleStamps)
{
    // Channel 0 writes its address 0 at beat 1, channel 1 its own
    // address 0 at beat 0. The stamp table is reset before channel 1,
    // so channel 0's stamp cannot make a hazard of it.
    sched::Schedule s = onePhase();
    put(s, 0, 0, 1, privateSlot(0, 1.0f));
    put(s, 1, 0, 0, privateSlot(4, 5.0f));
    Peg peg(s.config, 1);
    planAndReplay(s, 1, std::vector<float>(64, 1.0f), peg);
    EXPECT_FLOAT_EQ(peg.pe(0).pvt().value(0), 5.0f);
}

TEST(XWindowBuffer, LoadAndRead)
{
    XWindowBuffer buf;
    const std::vector<float> x = {0, 1, 2, 3, 4, 5, 6, 7};
    buf.load(x, 4, 3);
    EXPECT_EQ(buf.base(), 4u);
    EXPECT_EQ(buf.length(), 3u);
    EXPECT_FLOAT_EQ(buf.data()[0], 4.0f);
    EXPECT_FLOAT_EQ(buf.data()[2], 6.0f);
}

TEST(XWindowBufferDeath, OutsideWindowPanics)
{
    XWindowBuffer buf;
    const std::vector<float> x(16, 1.0f);
    buf.load(x, 8, 4);
    const SlotRouter router(smallGeometry(), 1, buf.base(), buf.length());
    sched::Slot slot;
    slot.valid = true;
    slot.col = 7;
    EXPECT_DEATH(router.route(slot, 0, 0), "window");
    slot.col = 12;
    EXPECT_DEATH(router.route(slot, 0, 0), "window");
}

TEST(XWindowBufferDeath, LoadBeyondXPanics)
{
    XWindowBuffer buf;
    const std::vector<float> x(4, 1.0f);
    EXPECT_DEATH(buf.load(x, 2, 4), "outside x");
}

/**
 * Stream @p slot through PE @p pe of channel @p channel: plan it as a
 * one-beat, one-phase schedule and replay that channel into @p peg.
 */
void
streamSlot(Peg &peg, const sched::Slot &slot, const std::vector<float> &x,
           unsigned channel, unsigned pe)
{
    sched::Schedule s = onePhase();
    put(s, channel, pe, 0, slot);
    planAndReplay(s, channel, x, peg);
}

TEST(Pe, PrivateRouting)
{
    Peg peg(smallGeometry(), 1);
    // Row 16: lane (0,0), local row 1.
    streamSlot(peg, privateSlot(16, 3.0f, 5), std::vector<float>(64, 2.0f),
               0, 0);
    EXPECT_FLOAT_EQ(peg.pe(0).pvt().value(1), 6.0f);
}

TEST(Pe, SharedRoutingByPeSrc)
{
    Peg peg(smallGeometry(), 1);
    // Row 22: lane 22 % 16 = 6 -> channel 1, pe 2, local row 1.
    sched::Slot slot = privateSlot(22, 4.0f);
    slot.pvt = false;
    streamSlot(peg, slot, std::vector<float>(64, 1.0f), /*channel=*/0,
               /*pe=*/3);
    EXPECT_FLOAT_EQ(peg.pe(3).shared(1, 2).value(1), 4.0f);
    EXPECT_FLOAT_EQ(peg.pe(3).pvt().value(1), 0.0f);
}

TEST(Pe, InvalidSlotIsIgnored)
{
    Peg peg(smallGeometry(), 1);
    streamSlot(peg, sched::Slot(), std::vector<float>(64, 1.0f), 0, 0);
    EXPECT_FLOAT_EQ(peg.pe(0).pvt().value(0), 0.0f);
    EXPECT_FALSE(peg.pe(0).pvt().dirty());
}

TEST(PeDeath, WrongLanePanics)
{
    Peg peg(smallGeometry(), 1);
    // Row 1 belongs to lane (0,1); streamed by PE 0 as private.
    EXPECT_DEATH(streamSlot(peg, privateSlot(1), std::vector<float>(64),
                            0, 0),
                 "routed");
}

TEST(PeDeath, MigrationBeyondDepthPanics)
{
    Peg peg(smallGeometry(), 1); // depth 1 only
    // Row 8 belongs to channel 2; received on channel 0: distance 2.
    sched::Slot slot = privateSlot(8);
    slot.pvt = false;
    EXPECT_DEATH(streamSlot(peg, slot, std::vector<float>(64), 0, 0),
                 "distance");
}

TEST(Peg, ReduceSharedSumsAcrossPes)
{
    // Row 21 -> lane 5 -> channel 1, pe 1, local row 1. Spread three
    // contributions of the same row over different destination PEs of
    // channel 0, all on one beat.
    sched::Schedule s = onePhase();
    for (unsigned dest_pe : {0u, 1u, 2u}) {
        sched::Slot slot = privateSlot(21, 2.0f, dest_pe);
        slot.pvt = false;
        put(s, 0, dest_pe, 0, slot);
    }
    Peg peg(s.config, 1);
    planAndReplay(s, 0, std::vector<float>(64, 1.0f), peg);

    std::vector<float> reduced(sched::passDepth(s, 0));
    peg.reduceSharedInto(1, 1, reduced.data());
    EXPECT_FLOAT_EQ(reduced[1], 6.0f);
    EXPECT_FLOAT_EQ(reduced[0], 0.0f);
    // Other source PE banks untouched.
    EXPECT_FALSE(peg.reduceSharedInto(1, 0, reduced.data()));
    EXPECT_FLOAT_EQ(reduced[1], 0.0f);
}

TEST(Peg, SerpensStylePeHasNoSharedBanks)
{
    Peg peg(smallGeometry(), 0);
    peg.reset(4);
    EXPECT_EQ(peg.pe(0).migrationDepth(), 0u);
    EXPECT_DEATH(peg.pe(0).shared(1, 0), "distance");
}

} // namespace
} // namespace arch
} // namespace chason
