/**
 * @file
 * Determinism regressions for the offline fast paths.
 *
 * The rewrite's contract is that none of its speed mechanisms —
 * parallel phase scheduling on a caller-owned pool, the SoA/AVX2
 * streaming core, the precomputed StreamPlan, PEG pooling, the blocked
 * column scatter — may change one bit of any result. These tests pin
 * that contract on three R-MAT tiers: pooled CrHCS must produce the
 * calling-thread schedule slot for slot at every pool size,
 * the planned simulation must reproduce run() exactly (y, every cycle
 * counter, the report JSON), and the cache-blocked scatter must
 * produce the direct scatter's arrays.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "arch/chason_accel.h"
#include "arch/stream_soa.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/report_json.h"
#include "core/thread_pool.h"
#include "sched/crhcs.h"
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

TEST(PerfDeterminism, PlannedSimulationMatchesRunExactly)
{
    arch::ArchConfig ac;
    const arch::ChasonAccelerator accel(ac);
    const sched::CrhcsScheduler scheduler(ac.sched);
    for (const Tier &tier : kTiers) {
        SCOPED_TRACE(tier.name);
        const sparse::CsrMatrix a = tierMatrix(tier);
        Rng rng = Rng::forStream(0xD373F00D, tier.scale);
        const std::vector<float> x = sparse::randomVector(a.cols(), rng);

        const sched::Schedule schedule = scheduler.schedule(a);
        const arch::StreamPlan plan(schedule, accel.migrationDepth());

        const arch::RunResult ref = accel.run(schedule, x);
        const arch::RunResult planned =
            accel.runPlanned(schedule, plan, x);

        ASSERT_EQ(ref.y.size(), planned.y.size());
        // operator== on the vectors is the bit check: equal floats,
        // including signed zeros behaving identically downstream.
        EXPECT_TRUE(ref.y == planned.y);
        EXPECT_EQ(ref.cycles.total(), planned.cycles.total());
        EXPECT_EQ(ref.cycles.matrixStream, planned.cycles.matrixStream);
        EXPECT_EQ(ref.cycles.xLoad, planned.cycles.xLoad);
        EXPECT_EQ(ref.cycles.pipelineFill, planned.cycles.pipelineFill);
        EXPECT_EQ(ref.cycles.reduction, planned.cycles.reduction);
        EXPECT_EQ(ref.cycles.writeback, planned.cycles.writeback);
        EXPECT_DOUBLE_EQ(ref.latencyUs, planned.latencyUs);
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
