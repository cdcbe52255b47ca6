/**
 * @file
 * Unit tests for statistics helpers.
 */

#include "common/stats.h"

#include <gtest/gtest.h>

#include "common/rng.h"

#include <atomic>
#include <cmath>
#include <thread>
#include <utility>

namespace chason {
namespace {

TEST(SummaryStats, Basics)
{
    SummaryStats st;
    st.add({4.0, 1.0, 3.0, 2.0});
    EXPECT_EQ(st.count(), 4u);
    EXPECT_DOUBLE_EQ(st.min(), 1.0);
    EXPECT_DOUBLE_EQ(st.max(), 4.0);
    EXPECT_DOUBLE_EQ(st.sum(), 10.0);
    EXPECT_DOUBLE_EQ(st.mean(), 2.5);
    EXPECT_DOUBLE_EQ(st.median(), 2.5);
}

TEST(SummaryStats, Geomean)
{
    SummaryStats st;
    st.add({1.0, 4.0});
    EXPECT_DOUBLE_EQ(st.geomean(), 2.0);
    st.add(2.0);
    EXPECT_NEAR(st.geomean(), 2.0, 1e-12);
}

TEST(SummaryStats, GeomeanRejectsNonPositive)
{
    SummaryStats st;
    st.add({1.0, -2.0});
    EXPECT_DEATH(st.geomean(), "positive");
}

TEST(SummaryStats, Percentiles)
{
    SummaryStats st;
    for (int i = 0; i <= 100; ++i)
        st.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(st.percentile(0), 0.0);
    EXPECT_DOUBLE_EQ(st.percentile(50), 50.0);
    EXPECT_DOUBLE_EQ(st.percentile(100), 100.0);
    EXPECT_NEAR(st.percentile(25), 25.0, 1e-9);
}

TEST(SummaryStats, PercentileExtremesAndTwoSamples)
{
    SummaryStats st;
    st.add({3.0, 7.0});
    // p=0 / p=100 are exactly min / max, no interpolation residue.
    EXPECT_DOUBLE_EQ(st.percentile(0.0), 3.0);
    EXPECT_DOUBLE_EQ(st.percentile(100.0), 7.0);
    // Linear interpolation between the only two samples.
    EXPECT_DOUBLE_EQ(st.percentile(50.0), 5.0);
    EXPECT_DOUBLE_EQ(st.percentile(25.0), 4.0);
    EXPECT_DOUBLE_EQ(st.percentile(75.0), 6.0);
}

TEST(SummaryStats, PercentileSingleSample)
{
    SummaryStats st;
    st.add(42.0);
    EXPECT_DOUBLE_EQ(st.percentile(0.0), 42.0);
    EXPECT_DOUBLE_EQ(st.percentile(50.0), 42.0);
    EXPECT_DOUBLE_EQ(st.percentile(100.0), 42.0);
}

TEST(SummaryStats, PercentileDuplicateHeavy)
{
    // 90 copies of 1.0 and 10 of 2.0: every percentile through the
    // duplicate mass must return the duplicate, and p=100 the max.
    SummaryStats st;
    for (int i = 0; i < 90; ++i)
        st.add(1.0);
    for (int i = 0; i < 10; ++i)
        st.add(2.0);
    EXPECT_DOUBLE_EQ(st.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(st.percentile(50.0), 1.0);
    EXPECT_DOUBLE_EQ(st.percentile(80.0), 1.0);
    EXPECT_DOUBLE_EQ(st.percentile(100.0), 2.0);
    // All-duplicates: interpolation between equal neighbours is exact.
    SummaryStats dup;
    dup.add({5.0, 5.0, 5.0, 5.0});
    EXPECT_DOUBLE_EQ(dup.percentile(33.3), 5.0);
    EXPECT_DOUBLE_EQ(dup.percentile(66.6), 5.0);
}

TEST(SummaryStats, StddevKnown)
{
    SummaryStats st;
    st.add({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
    EXPECT_DOUBLE_EQ(st.stddev(), 2.0);
}

TEST(SummaryStats, AddAfterQueryInvalidatesCache)
{
    SummaryStats st;
    st.add(1.0);
    EXPECT_DOUBLE_EQ(st.max(), 1.0);
    st.add(5.0);
    EXPECT_DOUBLE_EQ(st.max(), 5.0);
}

TEST(Histogram, BinningAndFrequency)
{
    Histogram h(0.0, 100.0, 10);
    for (int i = 0; i < 10; ++i)
        h.add(5.0); // bin 0
    h.add(95.0);    // bin 9
    EXPECT_EQ(h.count(0), 10u);
    EXPECT_EQ(h.count(9), 1u);
    EXPECT_EQ(h.total(), 11u);
    EXPECT_NEAR(h.frequency(0), 10.0 / 11.0, 1e-12);
    EXPECT_EQ(h.modeBin(), 0u);
    EXPECT_DOUBLE_EQ(h.binCenter(0), 5.0);
}

TEST(Histogram, ClampsOutOfRange)
{
    Histogram h(0.0, 10.0, 5);
    h.add(-100.0);
    h.add(1e9);
    EXPECT_EQ(h.count(0), 1u);
    EXPECT_EQ(h.count(4), 1u);
}

TEST(Histogram, EdgeSamplesLandInEdgeBins)
{
    // A sample exactly at hi must land in the last bin, not be dropped
    // or clamped into a phantom bin past the end; exactly at lo must
    // land in bin 0. Interior bin boundaries belong to the upper bin.
    Histogram h(0.0, 100.0, 10);
    h.add(0.0);   // == lo
    h.add(100.0); // == hi
    h.add(10.0);  // interior boundary -> bin 1
    h.add(90.0);  // last bin's lower edge -> bin 9
    EXPECT_EQ(h.count(0), 1u);
    EXPECT_EQ(h.count(1), 1u);
    EXPECT_EQ(h.count(9), 2u);
    EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, HiLandsInLastBinForAwkwardWidths)
{
    // (hi - lo) / bins is not exactly representable here; the explicit
    // sample >= hi branch must still place hi in the last bin.
    Histogram h(0.0, 1.0, 3);
    h.add(1.0);
    h.add(std::nextafter(1.0, 0.0)); // just below hi
    EXPECT_EQ(h.count(2), 2u);
    Histogram w(0.1, 0.7, 7);
    w.add(0.7);
    w.add(0.1);
    EXPECT_EQ(w.count(6), 1u);
    EXPECT_EQ(w.count(0), 1u);
    EXPECT_EQ(w.total(), 2u);
}

TEST(Histogram, DensityIntegratesToOne)
{
    Histogram h(0.0, 1.0, 4);
    for (int i = 0; i < 100; ++i)
        h.add(i / 100.0);
    double integral = 0.0;
    for (std::size_t b = 0; b < h.bins(); ++b)
        integral += h.density(b) * 0.25;
    EXPECT_NEAR(integral, 1.0, 1e-9);
}

TEST(LogHistogram, MillionSamplesWithinOnePercentOfExactSort)
{
    // Log-normal service times around a millisecond with a heavy tail,
    // plus a run of exact zeros: what a daemon's latency looks like.
    Rng rng(0x1A7E);
    LogHistogram histogram;
    SummaryStats exact;
    for (int i = 0; i < 1000000; ++i) {
        const double sample =
            i % 1000 == 0 ? 0.0 : std::exp(1.2 * rng.nextGaussian());
        histogram.add(sample);
        exact.add(sample);
    }

    EXPECT_EQ(histogram.count(), exact.count());
    EXPECT_EQ(histogram.min(), exact.min());
    EXPECT_EQ(histogram.max(), exact.max());
    EXPECT_EQ(histogram.mean(), exact.mean()); // same additions, same order
    double previous = histogram.min();
    for (const double p :
         {0.0, 0.05, 0.2, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0,
          99.9, 100.0}) {
        SCOPED_TRACE(p);
        const double want = exact.percentile(p);
        const double got = histogram.percentile(p);
        EXPECT_LE(std::fabs(got - want), 0.01 * want);
        EXPECT_GE(got, previous); // monotone in p
        EXPECT_GE(got, histogram.min());
        EXPECT_LE(got, histogram.max());
        previous = got;
    }
}

TEST(LogHistogram, SmallSetsAndOutOfRangeSamplesClampToMinMax)
{
    LogHistogram one;
    one.add(3.7);
    EXPECT_EQ(one.percentile(0.0), 3.7);
    EXPECT_EQ(one.percentile(50.0), 3.7);
    EXPECT_EQ(one.percentile(100.0), 3.7);

    LogHistogram wide;
    wide.add(1e-12); // below 2^-32: first bucket
    wide.add(1e12);  // beyond 2^32: last bucket
    EXPECT_EQ(wide.percentile(0.0), 1e-12);
    EXPECT_EQ(wide.percentile(100.0), 1e12);
    EXPECT_LE(wide.percentile(50.0), 1e12);
    EXPECT_EQ(wide.count(), 2u);
    EXPECT_EQ(wide.sum(), 1e-12 + 1e12);

    LogHistogram empty;
    EXPECT_TRUE(empty.empty());
    EXPECT_DEATH(empty.percentile(50.0), "empty");
}

TEST(KdePdf, PeakNearSampleMass)
{
    std::vector<double> samples;
    for (int i = 0; i < 200; ++i)
        samples.push_back(70.0 + (i % 10) * 0.1);
    KdePdf kde(samples);
    EXPECT_NEAR(kde.peak(0.0, 100.0), 70.5, 2.0);
}

TEST(KdePdf, DensityIntegratesToOne)
{
    std::vector<double> samples = {10, 20, 30, 40, 50};
    KdePdf kde(samples);
    const auto grid = kde.evaluate(-100.0, 160.0, 2000);
    double integral = 0.0;
    const double dx = 260.0 / 1999.0;
    for (const auto &[x, d] : grid)
        integral += d * dx;
    EXPECT_NEAR(integral, 1.0, 0.01);
}

TEST(KdePdf, ExplicitBandwidth)
{
    KdePdf kde({0.0}, 1.0);
    EXPECT_DOUBLE_EQ(kde.bandwidth(), 1.0);
    // Standard normal density at 0.
    EXPECT_NEAR(kde.density(0.0), 1.0 / std::sqrt(2.0 * M_PI), 1e-9);
}

TEST(Geomean, FreeFunction)
{
    EXPECT_DOUBLE_EQ(geomean({2.0, 8.0}), 4.0);
}

// Regression for the daemon's latency reporter: two threads reading
// p50/p99 from a shared const instance used to race on the mutable
// sorted_ cache. Run under TSAN by run_all.sh's concurrency leg.
TEST(SummaryStats, ConcurrentConstReadsAreSafe)
{
    SummaryStats st;
    for (int i = 999; i >= 0; --i)
        st.add(static_cast<double>(i));
    const SummaryStats &shared = st;

    // The cache is cold when the threads start, so they also race the
    // first lazy sort, not just steady-state reads.
    constexpr int kThreads = 8;
    constexpr int kIters = 200;
    std::vector<std::thread> threads;
    std::vector<double> p50(kThreads), p99(kThreads);
    std::atomic<int> failures{0};
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            p50[t] = shared.percentile(50.0);
            p99[t] = shared.percentile(99.0);
            for (int i = 0; i < kIters; ++i) {
                if (shared.percentile(50.0) != p50[t] ||
                    shared.percentile(99.0) != p99[t] ||
                    shared.min() != 0.0 || shared.max() != 999.0)
                    failures.fetch_add(1);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(failures.load(), 0);
    for (int t = 0; t < kThreads; ++t) {
        EXPECT_EQ(p50[t], shared.percentile(50.0));
        EXPECT_EQ(p99[t], shared.percentile(99.0));
    }
}

TEST(SummaryStats, CopyAndMoveDropTheCache)
{
    SummaryStats st;
    st.add({3.0, 1.0, 2.0});
    EXPECT_DOUBLE_EQ(st.median(), 2.0); // builds the sorted cache

    SummaryStats copy(st);
    copy.add(10.0);
    EXPECT_DOUBLE_EQ(copy.max(), 10.0);
    EXPECT_DOUBLE_EQ(st.max(), 3.0);

    SummaryStats assigned;
    assigned = copy;
    EXPECT_DOUBLE_EQ(assigned.max(), 10.0);

    SummaryStats moved(std::move(copy));
    EXPECT_DOUBLE_EQ(moved.max(), 10.0);
    EXPECT_EQ(moved.count(), 4u);
}

} // namespace
} // namespace chason
