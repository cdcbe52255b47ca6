/**
 * @file
 * Unit tests for the PEG model (accumulator banks, router, reduction).
 */

#include "arch/peg.h"
#include "arch/stream_soa.h"

#include <gtest/gtest.h>

namespace chason {
namespace arch {
namespace {

sched::SchedConfig
cfg4()
{
    sched::SchedConfig cfg;
    cfg.channels = 4;
    cfg.pesOverride = 4;
    cfg.rawDistance = 3;
    cfg.windowCols = 64;
    cfg.rowsPerLanePerPass = 16;
    cfg.migrationDepth = 1;
    return cfg;
}

TEST(AccumulatorBank, AccumulatesAndReads)
{
    AccumulatorBank bank;
    bank.reset(8);
    bank.accumulate(3, 1.5f, 0, 3);
    bank.accumulate(3, 2.0f, 3, 3);
    EXPECT_FLOAT_EQ(bank.value(3), 3.5f);
    EXPECT_FLOAT_EQ(bank.value(0), 0.0f);
}

TEST(AccumulatorBankDeath, RawHazardPanics)
{
    AccumulatorBank bank;
    bank.reset(8);
    bank.accumulate(2, 1.0f, 10, 3);
    EXPECT_DEATH(bank.accumulate(2, 1.0f, 12, 3), "RAW");
}

TEST(AccumulatorBank, DifferentAddressesNoHazard)
{
    AccumulatorBank bank;
    bank.reset(8);
    bank.accumulate(0, 1.0f, 0, 3);
    bank.accumulate(1, 1.0f, 1, 3); // different row: fine
    SUCCEED();
}

TEST(AccumulatorBankDeath, OutOfDepthPanics)
{
    AccumulatorBank bank;
    bank.reset(4);
    EXPECT_DEATH(bank.accumulate(4, 1.0f, 0, 1), "depth");
    EXPECT_DEATH(bank.value(9), "depth");
}

TEST(AccumulatorBank, ResetClearsHistory)
{
    AccumulatorBank bank;
    bank.reset(4);
    bank.accumulate(1, 5.0f, 0, 3);
    bank.reset(4);
    EXPECT_FLOAT_EQ(bank.value(1), 0.0f);
    bank.accumulate(1, 1.0f, 0, 3); // no stale RAW state
    SUCCEED();
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
    const SlotRouter router(cfg4(), 1, buf.base(), buf.length());
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
 * Stream @p slot through PE @p pe of channel @p channel at beat 0: a
 * one-beat channel schedule walked by streamChannel.
 */
void
streamSlot(Peg &peg, const sched::Slot &slot, const XWindowBuffer &buf,
           const sched::SchedConfig &cfg, unsigned channel, unsigned pe)
{
    sched::Beat beat;
    beat.slots[pe] = slot;
    sched::ChannelWindowSchedule cws;
    cws.beats.append(1, beat);
    const SlotRouter router(cfg, peg.pe(0).migrationDepth(), buf.base(),
                            buf.length());
    streamChannel(cws, router, channel, buf, 0, cfg, peg);
}

TEST(Pe, PrivateRouting)
{
    sched::SchedConfig cfg = cfg4();
    Peg peg(cfg, 1);
    peg.reset(16);
    XWindowBuffer buf;
    const std::vector<float> x(64, 2.0f);
    buf.load(x, 0, 64);

    sched::Slot slot;
    slot.valid = true;
    slot.value = 3.0f;
    slot.row = 16; // lane (0,0), local row 1
    slot.col = 5;
    slot.pvt = true;
    slot.peSrc = 0;
    slot.chSrc = 0;
    streamSlot(peg, slot, buf, cfg, 0, 0);
    EXPECT_FLOAT_EQ(peg.pe(0).pvt().value(1), 6.0f);
}

TEST(Pe, SharedRoutingByPeSrc)
{
    sched::SchedConfig cfg = cfg4();
    Peg peg(cfg, 1);
    peg.reset(16);
    XWindowBuffer buf;
    const std::vector<float> x(64, 1.0f);
    buf.load(x, 0, 64);

    // Row 22: lane 22 % 16 = 6 -> channel 1, pe 2, local row 1.
    sched::Slot slot;
    slot.valid = true;
    slot.value = 4.0f;
    slot.row = 22;
    slot.col = 0;
    slot.pvt = false;
    slot.peSrc = 2;
    slot.chSrc = 1;
    streamSlot(peg, slot, buf, cfg, /*channel=*/0, /*pe=*/3);
    EXPECT_FLOAT_EQ(peg.pe(3).shared(1, 2).value(1), 4.0f);
    EXPECT_FLOAT_EQ(peg.pe(3).pvt().value(1), 0.0f);
}

TEST(Pe, InvalidSlotIsIgnored)
{
    sched::SchedConfig cfg = cfg4();
    Peg peg(cfg, 1);
    peg.reset(4);
    XWindowBuffer buf;
    const std::vector<float> x(64, 1.0f);
    buf.load(x, 0, 64);
    streamSlot(peg, sched::Slot(), buf, cfg, 0, 0);
    EXPECT_FLOAT_EQ(peg.pe(0).pvt().value(0), 0.0f);
}

TEST(PeDeath, WrongLanePanics)
{
    sched::SchedConfig cfg = cfg4();
    Peg peg(cfg, 1);
    peg.reset(4);
    XWindowBuffer buf;
    const std::vector<float> x(64, 1.0f);
    buf.load(x, 0, 64);
    sched::Slot slot;
    slot.valid = true;
    slot.value = 1.0f;
    slot.row = 1; // lane (0,1)
    slot.col = 0;
    slot.pvt = true;
    slot.peSrc = 1;
    slot.chSrc = 0;
    EXPECT_DEATH(streamSlot(peg, slot, buf, cfg, 0, 0), "routed");
}

TEST(PeDeath, MigrationBeyondDepthPanics)
{
    sched::SchedConfig cfg = cfg4();
    Peg peg(cfg, 1); // depth 1 only
    peg.reset(4);
    XWindowBuffer buf;
    const std::vector<float> x(64, 1.0f);
    buf.load(x, 0, 64);
    sched::Slot slot;
    slot.valid = true;
    slot.value = 1.0f;
    slot.row = 8; // channel 2
    slot.col = 0;
    slot.pvt = false;
    slot.peSrc = 0;
    slot.chSrc = 2;
    // Received on channel 0: distance 2 > depth 1.
    EXPECT_DEATH(streamSlot(peg, slot, buf, cfg, 0, 0), "distance");
}

TEST(Peg, ReduceSharedSumsAcrossPes)
{
    sched::SchedConfig cfg = cfg4();
    Peg peg(cfg, 1);
    peg.reset(8);
    XWindowBuffer buf;
    const std::vector<float> x(64, 1.0f);
    buf.load(x, 0, 64);

    // Row 21 -> lane 5 -> channel 1, pe 1, local row 1. Spread three
    // contributions of the same row over different destination PEs.
    for (unsigned dest_pe : {0u, 1u, 2u}) {
        sched::Slot slot;
        slot.valid = true;
        slot.value = 2.0f;
        slot.row = 21;
        slot.col = static_cast<std::uint32_t>(dest_pe);
        slot.pvt = false;
        slot.peSrc = 1;
        slot.chSrc = 1;
        streamSlot(peg, slot, buf, cfg, 0, dest_pe);
    }
    std::vector<float> reduced(8);
    peg.reduceSharedInto(1, 1, reduced.data());
    EXPECT_FLOAT_EQ(reduced[1], 6.0f);
    EXPECT_FLOAT_EQ(reduced[0], 0.0f);
    // Other source PE banks untouched.
    peg.reduceSharedInto(1, 0, reduced.data());
    EXPECT_FLOAT_EQ(reduced[1], 0.0f);
}

TEST(Peg, SerpensStylePeHasNoSharedBanks)
{
    sched::SchedConfig cfg = cfg4();
    Peg peg(cfg, 0);
    peg.reset(4);
    EXPECT_EQ(peg.pe(0).migrationDepth(), 0u);
    EXPECT_DEATH(peg.pe(0).shared(1, 0), "distance");
}

} // namespace
} // namespace arch
} // namespace chason
