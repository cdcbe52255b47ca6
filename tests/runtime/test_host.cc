/**
 * @file
 * Tests for the host-side execution model (Section 5.2 methodology).
 */

#include "runtime/host.h"

#include <gtest/gtest.h>

#include "arch/chason_accel.h"
#include "arch/serpens_accel.h"
#include "common/rng.h"
#include "sched/crhcs.h"
#include "sched/pe_aware.h"
#include "sparse/generators.h"

namespace chason {
namespace runtime {
namespace {

const arch::Accelerator &
chasonAccelerator()
{
    static const arch::ChasonAccelerator accel{arch::ArchConfig{}};
    return accel;
}

sched::Schedule
sampleSchedule()
{
    Rng rng(1);
    const sparse::CsrMatrix a =
        sparse::zipfRows(2000, 2000, 30000, 1.2, rng);
    return sched::CrhcsScheduler(sched::SchedConfig{}).schedule(a);
}

TEST(HostPlatform, DmaCostModel)
{
    HostPlatform p;
    p.pcieBandwidthGBps = 10.0;
    p.dmaLatencyUs = 5.0;
    // 10 MB at 10 GB/s = 1000 us + 5 us latency.
    EXPECT_NEAR(p.dmaUs(10'000'000), 1005.0, 1e-6);
    EXPECT_NEAR(p.dmaUs(0), 5.0, 1e-9);
}

TEST(HostSession, AmortizationConvergesToSteadyState)
{
    const sched::Schedule sch = sampleSchedule();
    const HostSession session(chasonAccelerator());

    const EndToEndReport one = session.measure(sch, 1, true);
    const EndToEndReport thousand = session.measure(sch, 1000);

    // With one iteration and a cold board the bitstream dominates by
    // orders of magnitude; at 1000 iterations on a configured board
    // (the paper's methodology) the one-time costs fade.
    EXPECT_GT(one.amortizedPerIterationUs(),
              100.0 * one.steadyStatePerIterationUs());
    EXPECT_LT(thousand.amortizedPerIterationUs(),
              2.0 * thousand.steadyStatePerIterationUs());
    EXPECT_DOUBLE_EQ(one.steadyStatePerIterationUs(),
                     thousand.steadyStatePerIterationUs());
}

TEST(HostSession, ThousandIterationsIsKernelDominated)
{
    // Section 5.2's claim, quantified: at 1000 iterations the
    // measurement mostly sees the kernel.
    const sched::Schedule sch = sampleSchedule();
    const HostSession session(chasonAccelerator());
    const EndToEndReport r = session.measure(sch, 1000);
    EXPECT_GT(r.kernelShare(), 0.25);
    EXPECT_GT(r.kernelUs, 0.0);
    EXPECT_EQ(r.iterations, 1000u);
}

TEST(HostSession, SerpensPaysForItsPaddingTwice)
{
    // The padded Serpens artifact is bigger, so its one-time DMA is
    // longer than Chasoň's for the same matrix.
    Rng rng(2);
    const sparse::CsrMatrix a =
        sparse::arrowBanded(1000, 6, 0.3, 3, rng);
    sched::SchedConfig pe_cfg;
    pe_cfg.migrationDepth = 0;
    const sched::Schedule serpens =
        sched::PeAwareScheduler(pe_cfg).schedule(a);
    const sched::Schedule chason =
        sched::CrhcsScheduler(sched::SchedConfig{}).schedule(a);

    const arch::SerpensAccelerator serpens_accel{arch::ArchConfig{}};
    const HostSession s_serpens(serpens_accel);
    const HostSession s_chason(chasonAccelerator());
    const EndToEndReport rs = s_serpens.measure(serpens, 1000);
    const EndToEndReport rc = s_chason.measure(chason, 1000);
    EXPECT_GT(rs.artifactDmaMs, rc.artifactDmaMs);
    EXPECT_GT(rs.kernelUs, rc.kernelUs);
}

TEST(HostSession, TotalsAreConsistent)
{
    const sched::Schedule sch = sampleSchedule();
    const HostSession session(chasonAccelerator());
    const EndToEndReport r = session.measure(sch, 10);
    EXPECT_NEAR(r.totalMs(),
                r.bitstreamMs + r.artifactDmaMs +
                    10.0 * r.steadyStatePerIterationUs() / 1e3,
                1e-9);
    EXPECT_NEAR(r.amortizedPerIterationUs() * 10.0, r.totalMs() * 1e3,
                1e-6);
}

TEST(HostSessionDeath, ZeroIterationsPanics)
{
    const sched::Schedule sch = sampleSchedule();
    const HostSession session(chasonAccelerator());
    EXPECT_DEATH(session.measure(sch, 0), "iteration");
}

} // namespace
} // namespace runtime
} // namespace chason
