/**
 * @file
 * Determinism regressions for the offline fast paths.
 *
 * The rewrite's contract is that none of its speed mechanisms —
 * parallel phase scheduling on a caller-owned pool, the precomputed
 * StreamPlan, PEG pooling, the blocked column scatter — may change one
 * bit of any result. These tests pin that contract on three R-MAT
 * tiers: pooled CrHCS must produce the calling-thread schedule slot for
 * slot at every pool size, the plan replay must reproduce run()'s
 * beat-list walk exactly (y, every cycle counter, traffic, the report
 * JSON) on both datapaths, and the cache-blocked scatter must produce
 * the direct scatter's arrays.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "arch/chason_accel.h"
#include "arch/serpens_accel.h"
#include "arch/stream_soa.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/report_json.h"
#include "core/thread_pool.h"
#include "sched/crhcs.h"
#include "sched/pe_aware.h"
#include "sparse/csc.h"
#include "sparse/generators.h"
#include "support/schedule_equal.h"

namespace chason {
namespace {

struct Tier
{
    const char *name;
    std::uint32_t scale;
    std::size_t nnzTarget;
};

/** Three sizes: single-window, multi-window, multi-pass territory. */
const Tier kTiers[] = {
    {"tiny", 8, 1u << 12},
    {"small", 10, 1u << 14},
    {"medium", 12, 1u << 16},
};

/** Pool sizes the pooled CrHCS path is compared at, against no pool. */
const unsigned kPoolSizes[] = {1, 3, 8, 16};

sparse::CsrMatrix
tierMatrix(const Tier &tier)
{
    Rng rng = Rng::forStream(0xD373, tier.scale);
    return sparse::rmat(tier.scale, tier.nnzTarget, rng);
}

TEST(PerfDeterminism, ParallelSchedulingIsBitIdentical)
{
    const sched::SchedConfig config;
    for (const Tier &tier : kTiers) {
        SCOPED_TRACE(tier.name);
        const sparse::CsrMatrix a = tierMatrix(tier);

        const sched::Schedule serial =
            sched::CrhcsScheduler(config).schedule(a);
        // Oversubscribed pools on small machines are fine — and exactly
        // the point: the (pass, window) fan-out, the work-stealing pool
        // and the sharded migration setup must produce the same
        // schedule at *every* pool size.
        for (const unsigned workers : kPoolSizes) {
            SCOPED_TRACE(workers);
            core::ThreadPool pool(workers);
            const sched::CrhcsScheduler parallel(
                config, sched::MigrationStrategy::BeatSynchronous, &pool);
            testing_support::expectEqualSchedules(serial,
                                                  parallel.schedule(a));
        }
    }
}

/** Farthest channel distance any migrated slot of @p s travels. */
unsigned
maxMigrationDistance(const sched::Schedule &s)
{
    const unsigned channels = s.config.channels;
    unsigned farthest = 0;
    for (const sched::WindowSchedule &phase : s.phases) {
        for (unsigned ch = 0; ch < channels; ++ch) {
            for (const sched::Beat &beat : phase.channels[ch].beats) {
                for (unsigned p = 0; p < s.config.pesPerGroup(); ++p) {
                    const sched::Slot &slot = beat.slots[p];
                    if (slot.valid && !slot.pvt)
                        farthest = std::max(
                            farthest,
                            (slot.chSrc + channels - ch) % channels);
                }
            }
        }
    }
    return farthest;
}

/** Bit-for-bit equality of two runs: y, every cycle field, traffic. */
void
expectSameRun(const arch::RunResult &ref, const arch::RunResult &planned)
{
    ASSERT_EQ(ref.y.size(), planned.y.size());
    // operator== on the vectors is the bit check: equal floats,
    // including signed zeros behaving identically downstream.
    EXPECT_TRUE(ref.y == planned.y);
    EXPECT_EQ(ref.cycles.matrixStream, planned.cycles.matrixStream);
    EXPECT_EQ(ref.cycles.xLoad, planned.cycles.xLoad);
    EXPECT_EQ(ref.cycles.pipelineFill, planned.cycles.pipelineFill);
    EXPECT_EQ(ref.cycles.reduction, planned.cycles.reduction);
    EXPECT_EQ(ref.cycles.writeback, planned.cycles.writeback);
    EXPECT_EQ(ref.cycles.instStream, planned.cycles.instStream);
    EXPECT_EQ(ref.cycles.launch, planned.cycles.launch);
    EXPECT_EQ(ref.traffic.totalBytes(), planned.traffic.totalBytes());
    EXPECT_DOUBLE_EQ(ref.latencyUs, planned.latencyUs);
}

/**
 * Walk (run) against replay (runPlanned) of @p scheduler's schedule on
 * @p accel, at every tier, for plain SpMV and for a beta != 0 call.
 */
void
expectPlannedMatchesRun(const arch::Accelerator &accel,
                        const sched::Scheduler &scheduler)
{
    for (const Tier &tier : kTiers) {
        SCOPED_TRACE(tier.name);
        const sparse::CsrMatrix a = tierMatrix(tier);
        Rng rng = Rng::forStream(0xD373F00D, tier.scale);
        const std::vector<float> x = sparse::randomVector(a.cols(), rng);
        const std::vector<float> y_in = sparse::randomVector(a.rows(), rng);

        const sched::Schedule schedule = scheduler.schedule(a);
        const arch::StreamPlan plan(schedule, accel.migrationDepth());

        expectSameRun(accel.run(schedule, x),
                      accel.runPlanned(schedule, plan, x));

        arch::SpmvParams params;
        params.alpha = 0.75f;
        params.beta = -1.5f;
        params.yIn = &y_in;
        expectSameRun(accel.run(schedule, x, params),
                      accel.runPlanned(schedule, plan, x, params));
    }
}

TEST(PerfDeterminism, PlannedSimulationMatchesRunExactly)
{
    {
        SCOPED_TRACE("chason, CrHCS depth 1");
        const arch::ArchConfig ac;
        expectPlannedMatchesRun(arch::ChasonAccelerator(ac),
                                sched::CrhcsScheduler(ac.sched));
    }
    {
        SCOPED_TRACE("chason, CrHCS depth 2");
        arch::ArchConfig ac;
        ac.sched.migrationDepth = 2;
        const arch::ChasonAccelerator accel(ac);
        ASSERT_EQ(accel.migrationDepth(), 2u);
        const sched::CrhcsScheduler scheduler(ac.sched);
        // The case must exercise the second ScUG distance.
        ASSERT_EQ(maxMigrationDistance(
                      scheduler.schedule(tierMatrix(kTiers[2]))),
                  2u);
        expectPlannedMatchesRun(accel, scheduler);
    }
    {
        SCOPED_TRACE("serpens, PE-aware");
        arch::ArchConfig ac;
        ac.sched.migrationDepth = 0;
        const arch::SerpensAccelerator accel(ac);
        ASSERT_EQ(accel.migrationDepth(), 0u);
        expectPlannedMatchesRun(accel, sched::PeAwareScheduler(ac.sched));
    }
}

TEST(PerfDeterminism, ReportJsonUnchangedByParallelScheduling)
{
    const core::Engine engine(core::Engine::Kind::Chason);
    for (const Tier &tier : kTiers) {
        SCOPED_TRACE(tier.name);
        const sparse::CsrMatrix a = tierMatrix(tier);
        Rng rng = Rng::forStream(0xD373F00D, tier.scale);
        const std::vector<float> x = sparse::randomVector(a.cols(), rng);

        const sched::CrhcsScheduler sequential(engine.config().sched);
        const std::string json1 = core::toJson(engine.runScheduled(
            sequential.schedule(a), a, x, tier.name));
        for (const unsigned workers : kPoolSizes) {
            SCOPED_TRACE(workers);
            core::ThreadPool pool(workers);
            const sched::CrhcsScheduler parallel(
                engine.config().sched,
                sched::MigrationStrategy::BeatSynchronous, &pool);
            const std::string jsonN = core::toJson(engine.runScheduled(
                parallel.schedule(a), a, x, tier.name));
            EXPECT_EQ(json1, jsonN);
        }
    }
}

TEST(PerfDeterminism, BlockedColumnScatterMatchesDirect)
{
    for (const Tier &tier : kTiers) {
        SCOPED_TRACE(tier.name);
        const sparse::CsrMatrix a = tierMatrix(tier);
        const std::vector<std::size_t> col_ptr =
            sparse::columnPointers(a);

        std::vector<std::uint32_t> direct_idx(a.nnz());
        std::vector<float> direct_val(a.nnz());
        // block_cols >= cols forces the direct path.
        sparse::scatterByColumn(a, col_ptr, direct_idx.data(),
                                direct_val.data(), a.cols());

        for (std::uint32_t block_cols : {16u, 64u, 1024u}) {
            std::vector<std::uint32_t> blocked_idx(a.nnz());
            std::vector<float> blocked_val(a.nnz());
            sparse::scatterByColumn(a, col_ptr, blocked_idx.data(),
                                    blocked_val.data(), block_cols);
            EXPECT_TRUE(direct_idx == blocked_idx);
            EXPECT_TRUE(direct_val == blocked_val);
        }

        // And the conversions built on it still round-trip.
        const sparse::CsrMatrix t2 = a.transpose().transpose();
        EXPECT_TRUE(a.rowPtr() == t2.rowPtr());
        EXPECT_TRUE(a.colIdx() == t2.colIdx());
        EXPECT_TRUE(a.values() == t2.values());
        const sparse::CsrMatrix round =
            sparse::CscMatrix::fromCsr(a).toCsr();
        EXPECT_TRUE(a.colIdx() == round.colIdx());
        EXPECT_TRUE(a.values() == round.values());
    }
}

} // namespace
} // namespace chason
