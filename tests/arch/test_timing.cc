/**
 * @file
 * Unit tests for the timing helpers and frequency model.
 */

#include "arch/timing.h"

#include <gtest/gtest.h>

#include "arch/frequency.h"

namespace chason {
namespace arch {
namespace {

TEST(MemoryStallFactor, SerpensClockIsBeatLimited)
{
    // 223 MHz x 64 B = 14.27 GB/s < 14.37 GB/s channel peak.
    const double f =
        memoryStallFactor(hbm::HbmConfig::alveoU55c(), 223.0);
    EXPECT_DOUBLE_EQ(f, 1.0);
}

TEST(MemoryStallFactor, ChasonClockIsBandwidthLimited)
{
    // 301 MHz wants 19.26 GB/s against 14.37 GB/s: ~1.34 cycles/beat.
    const double f =
        memoryStallFactor(hbm::HbmConfig::alveoU55c(), 301.0);
    EXPECT_NEAR(f, 19.264 / 14.37, 1e-3);
}

TEST(MemoryStallFactor, EffectiveBeatRatesNearlyEqual)
{
    // The key timing consequence: both designs stream beats at almost
    // the same wall-clock rate, so Chasoň's win comes from fewer beats.
    const hbm::HbmConfig cfg = hbm::HbmConfig::alveoU55c();
    const double serpens_rate = 223.0 / memoryStallFactor(cfg, 223.0);
    const double chason_rate = 301.0 / memoryStallFactor(cfg, 301.0);
    EXPECT_NEAR(chason_rate / serpens_rate, 1.0, 0.02);
}

TEST(StreamCycles, CeilsProperly)
{
    EXPECT_EQ(streamCycles(100, 1.0), 100u);
    EXPECT_EQ(streamCycles(100, 1.34), 134u);
    EXPECT_EQ(streamCycles(3, 1.34), 5u); // 4.02 -> 5
    EXPECT_EQ(streamCycles(0, 2.0), 0u);
}

TEST(CycleBreakdown, TotalSums)
{
    CycleBreakdown b;
    b.matrixStream = 100;
    b.xLoad = 10;
    b.pipelineFill = 5;
    b.reduction = 20;
    b.writeback = 7;
    b.instStream = 2;
    b.launch = 50;
    EXPECT_EQ(b.total(), 194u);
}

TEST(FrequencyModel, ReproducesPaperClocks)
{
    const FrequencyModel fm;
    EXPECT_NEAR(fm.achievedMhz(MemoryTopology::SingleUramPerPe), 223.0,
                0.5);
    EXPECT_NEAR(fm.achievedMhz(MemoryTopology::DistributedUramGroup),
                301.0, 0.5);
}

TEST(FrequencyModel, DistributedIsFaster)
{
    const FrequencyModel fm;
    EXPECT_GT(fm.achievedMhz(MemoryTopology::DistributedUramGroup),
              fm.achievedMhz(MemoryTopology::SingleUramPerPe));
}

} // namespace
} // namespace arch
} // namespace chason
