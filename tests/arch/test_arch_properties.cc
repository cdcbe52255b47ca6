/**
 * @file
 * Architecture-level property tests: claims the paper makes about the
 * design space, checked against the models.
 */

#include <gtest/gtest.h>

#include "arch/chason_accel.h"
#include "arch/serpens_accel.h"
#include "common/rng.h"
#include "core/engine.h"
#include "sched/crhcs.h"
#include "sched/pe_aware.h"
#include "sparse/generators.h"

namespace chason {
namespace arch {
namespace {

sparse::CsrMatrix
testMatrix(std::uint64_t seed)
{
    Rng rng(seed);
    return sparse::zipfRows(2000, 2000, 24000, 1.2, rng);
}

TEST(ArchProperties, ScugFoldingIsPerformanceNeutral)
{
    // Section 4.5: reducing the ScUG from 8 to 4 (or 1) URAMs does not
    // affect performance for matrices that still fit one pass.
    const sparse::CsrMatrix a = testMatrix(1);
    Rng rng(2);
    const std::vector<float> x = sparse::randomVector(a.cols(), rng);

    std::uint64_t baseline_cycles = 0;
    for (unsigned scug : {8u, 4u, 2u}) {
        ArchConfig cfg;
        cfg.scugSize = scug;
        cfg.sched.rowsPerLanePerPass = cfg.capacityRowsPerLane();
        core::Engine engine(core::Engine::Kind::Chason, cfg);
        const core::SpmvReport r = engine.run(a, x);
        if (baseline_cycles == 0)
            baseline_cycles = r.cycles;
        EXPECT_EQ(r.cycles, baseline_cycles) << "scug " << scug;
    }
}

TEST(ArchProperties, LowerPlatformBandwidthNeverSpeedsUp)
{
    const sparse::CsrMatrix a = testMatrix(3);
    ArchConfig u55c;
    ArchConfig u280;
    u280.hbm = hbm::HbmConfig::alveoU280();
    const sched::Schedule sch =
        sched::CrhcsScheduler(u55c.sched).schedule(a);
    EXPECT_LE(ChasonAccelerator(u55c).timeline(sch, nullptr).latencyUs,
              ChasonAccelerator(u280).timeline(sch, nullptr).latencyUs);
}

TEST(ArchProperties, SpeedupIsBandwidthPortable)
{
    // The CrHCS-over-PE-aware speedup comes from beats, not bytes/s:
    // moving both designs to the U280 changes latencies but barely the
    // ratio.
    const sparse::CsrMatrix a = testMatrix(4);
    sched::SchedConfig pe_cfg;
    pe_cfg.migrationDepth = 0;
    const sched::Schedule pe =
        sched::PeAwareScheduler(pe_cfg).schedule(a);
    sched::SchedConfig cr_cfg;
    const sched::Schedule cr = sched::CrhcsScheduler(cr_cfg).schedule(a);

    auto ratio = [&](const hbm::HbmConfig &hbm_cfg) {
        ArchConfig cfg;
        cfg.hbm = hbm_cfg;
        return SerpensAccelerator(cfg).timeline(pe, nullptr).latencyUs /
            ChasonAccelerator(cfg).timeline(cr, nullptr).latencyUs;
    };
    const double u55c = ratio(hbm::HbmConfig::alveoU55c());
    const double u280 = ratio(hbm::HbmConfig::alveoU280());
    EXPECT_NEAR(u280 / u55c, 1.0, 0.25);
}

TEST(ArchProperties, DeeperMigrationNeverSlowerOnImbalance)
{
    // Section 6.1: extending the scheduling scope to more channels can
    // only help (it costs URAMs, which the resource model charges).
    sparse::CooMatrix coo(256, 2048);
    Rng rng(5);
    for (std::uint32_t c = 0; c < 600; ++c)
        coo.add(0, c, rng.nextFloat(0.1f, 1.0f));
    for (std::uint32_t r = 0; r < 256; ++r)
        coo.add(r, r, 1.0f);
    const sparse::CsrMatrix a = coo.toCsr();
    const std::vector<float> x = sparse::randomVector(a.cols(), rng);

    double prev = 1e300;
    for (unsigned depth : {1u, 2u, 3u}) {
        ArchConfig cfg;
        cfg.sched.migrationDepth = depth;
        cfg.sched.rowsPerLanePerPass = 1024; // fit the URAM budget
        const sched::Schedule sch =
            sched::CrhcsScheduler(cfg.sched).schedule(a);
        const RunResult r = ChasonAccelerator(cfg).run(sch, x);
        const std::vector<double> ref = sparse::spmvReference(a, x);
        EXPECT_LE(sparse::maxRelativeError(r.y, ref), 1.0)
            << "depth " << depth;
        EXPECT_LE(r.latencyUs, prev * 1.05) << "depth " << depth;
        prev = r.latencyUs;
    }
}

TEST(ArchProperties, Fp64ModeRunsAndCostsMoreBeats)
{
    // Section 5.5: FP64 packs 5 elements per beat, so the same matrix
    // needs more beats.
    Rng rng(6);
    const sparse::CsrMatrix a = sparse::erdosRenyi(512, 512, 6000, rng);
    const std::vector<float> x = sparse::randomVector(a.cols(), rng);

    ArchConfig fp32;
    ArchConfig fp64;
    fp64.sched.precision = sched::Precision::Fp64;
    fp64.sched.rowsPerLanePerPass = 2048;

    core::Engine e32(core::Engine::Kind::Chason, fp32);
    core::Engine e64(core::Engine::Kind::Chason, fp64);
    const core::SpmvReport r32 = e32.run(a, x);
    const core::SpmvReport r64 = e64.run(a, x);
    EXPECT_LE(r32.functionalError, 1.0);
    EXPECT_LE(r64.functionalError, 1.0);
    // Same stream bytes would mean same beats; FP64 mode carries only 5
    // elements per beat so it needs more of them for equal nnz.
    EXPECT_GT(r64.matrixStreamBytes, r32.matrixStreamBytes / 2);
}

TEST(ArchProperties, LatencyMonotoneInRawDistance)
{
    const sparse::CsrMatrix a = testMatrix(7);
    Rng rng(8);
    const std::vector<float> x = sparse::randomVector(a.cols(), rng);
    double prev = 0.0;
    for (unsigned d : {2u, 6u, 10u, 14u}) {
        ArchConfig cfg;
        cfg.sched.rawDistance = d;
        core::Engine engine(core::Engine::Kind::Serpens, cfg);
        const core::SpmvReport r = engine.run(a, x);
        EXPECT_GE(r.latencyMs, prev) << "distance " << d;
        prev = r.latencyMs;
    }
}

TEST(ArchProperties, TrafficEqualsArtifactPlusVectors)
{
    const sparse::CsrMatrix a = testMatrix(9);
    Rng rng(10);
    const std::vector<float> x = sparse::randomVector(a.cols(), rng);
    ArchConfig cfg;
    core::Engine engine(core::Engine::Kind::Chason, cfg);
    const sched::Schedule sch = engine.schedule(a);
    const core::SpmvReport r = engine.runScheduled(sch, a, x);
    // Total traffic = matrix stream + x loads + y write + descriptors.
    EXPECT_GT(r.totalBytes, r.matrixStreamBytes);
    EXPECT_LT(r.totalBytes,
              r.matrixStreamBytes +
                  (static_cast<std::uint64_t>(a.cols()) +
                   a.rows()) * 8 + 64 * 1024);
}

} // namespace
} // namespace arch
} // namespace chason
