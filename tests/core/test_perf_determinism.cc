/**
 * @file
 * Determinism regressions for the offline fast paths.
 *
 * The rewrite's contract is that none of its speed mechanisms —
 * parallel phase scheduling on a caller-owned pool, the StreamPlan the
 * simulator replays, PEG pooling, the blocked column scatter — may
 * change one bit of any result. These tests pin that contract on three
 * R-MAT tiers: pooled CrHCS must produce the calling-thread schedule
 * slot for slot at every pool size; a held plan's replay must
 * reproduce a one-off run() exactly (y, every cycle counter, traffic,
 * the report JSON) on both datapaths, over several passes and from
 * several threads at once, with y digests recorded from the beat-list
 * walk the plan replaced; the replay must equal that walk, kept here
 * as a sums-only oracle, bank by bank; a plan build must panic on a
 * corrupted schedule; and the cache-blocked scatter must produce the
 * direct scatter's arrays.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "arch/chason_accel.h"
#include "arch/serpens_accel.h"
#include "arch/stream_soa.h"
#include "common/hash.h"
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

/** One plan-vs-run input: a matrix and the stream its x is drawn from. */
struct PlanCase
{
    std::uint64_t stream;
    sparse::CsrMatrix a;
};

/** The three R-MAT tiers, x drawn from the stream of the tier's scale. */
std::vector<PlanCase>
tierCases()
{
    std::vector<PlanCase> cases;
    for (const Tier &tier : kTiers)
        cases.push_back({tier.scale, tierMatrix(tier)});
    return cases;
}

/**
 * FNV-1a digests of one case's y: plain SpMV and the alpha/beta call.
 * Recorded from the beat-list walk before the plan became the only
 * path, so they pin that the replay computes the walk's y.
 */
struct YDigests
{
    std::uint64_t plain;
    std::uint64_t alphaBeta;
};

std::uint64_t
yDigest(const std::vector<float> &y)
{
    return common::fnv1a(y.data(), y.size() * sizeof(float));
}

/**
 * The beat-list walk the simulator streamed with before StreamPlan
 * became its only path, kept as an independent oracle, sums only:
 * route every valid slot of channel @p ch of phase @p ph and add
 * value * x[col] into its bank of @p peg, in beat order.
 */
void
walkChannel(const sched::Schedule &s, std::size_t ph, unsigned ch,
            unsigned depth, const arch::XWindowBuffer &x, arch::Peg &peg)
{
    const arch::SlotRouter router(s.config, depth, x.base(), x.length());
    const sched::BeatList &beats = s.phases[ph].channels[ch].beats;
    for (std::size_t t = 0; t < beats.size(); ++t) {
        for (unsigned p = 0; p < s.config.pesPerGroup(); ++p) {
            const sched::Slot &slot = beats[t].slots[p];
            if (!slot.valid)
                continue;
            const arch::SlotRoute r = router.route(slot, ch, p);
            peg.pe(p).banks()[r.bank].add(r.addr,
                                          slot.value * x.data()[r.winCol]);
        }
    }
}

/**
 * Walk (the oracle) and replay every channel of @p s against @p x,
 * pass by pass, and compare every bank of every PE bit for bit at the
 * end of each pass. Returns how many banks of distance @p depth (>= 1)
 * held a migrated sum, so a caller can require that the farthest ScUG
 * distance was exercised.
 */
std::size_t
expectReplayMatchesWalkBankByBank(const sched::Schedule &s, unsigned depth,
                                  const std::vector<float> &x)
{
    const arch::StreamPlan plan(s, depth);
    const sched::SchedConfig &sc = s.config;
    const unsigned pes = sc.pesPerGroup();
    std::vector<arch::Peg> walked(sc.channels, arch::Peg(sc, depth));
    std::vector<arch::Peg> replayed(sc.channels, arch::Peg(sc, depth));
    arch::XWindowBuffer xbuf;
    std::size_t farthest = 0;
    std::size_t ph = 0;
    while (ph < s.phases.size()) {
        const std::uint32_t pass = s.phases[ph].pass;
        const std::uint32_t rows = sched::passDepth(s, pass);
        for (unsigned ch = 0; ch < sc.channels; ++ch) {
            walked[ch].reset(rows);
            replayed[ch].reset(rows);
        }
        for (; ph < s.phases.size() && s.phases[ph].pass == pass; ++ph) {
            const std::uint32_t base = s.phases[ph].window * sc.windowCols;
            xbuf.load(x, base, std::min(sc.windowCols, s.cols - base));
            for (unsigned ch = 0; ch < sc.channels; ++ch) {
                walkChannel(s, ph, ch, depth, xbuf, walked[ch]);
                plan.replay(ph, ch, xbuf, replayed[ch]);
            }
        }
        for (unsigned ch = 0; ch < sc.channels; ++ch) {
            for (unsigned p = 0; p < pes; ++p) {
                for (unsigned tag = 0; tag < 1 + depth * pes; ++tag) {
                    const arch::AccumulatorBank &w =
                        walked[ch].pe(p).banks()[tag];
                    const arch::AccumulatorBank &r =
                        replayed[ch].pe(p).banks()[tag];
                    EXPECT_EQ(w.dirty(), r.dirty());
                    EXPECT_EQ(std::memcmp(w.data(), r.data(),
                                          w.depth() * sizeof(float)),
                              0)
                        << "pass " << pass << " channel " << ch << " PE "
                        << p << " bank " << tag;
                    if (tag > (depth - 1) * pes && w.dirty())
                        ++farthest;
                }
            }
        }
    }
    return farthest;
}

/**
 * One-off run() (a fresh build and its replay) against a held plan's
 * replay (runPlanned) of @p scheduler's schedule on @p accel, for each
 * of @p cases, for plain SpMV and for a beta != 0 call; y must match
 * @p digests, case by case. The plan also holds exactly its
 * closed-form bytes. With @p oracle the replay is also compared with
 * the walk bank by bank, and must reach the farthest ScUG distance.
 */
void
expectPlannedMatchesRun(const arch::Accelerator &accel,
                        const sched::Scheduler &scheduler,
                        const std::vector<YDigests> &digests,
                        const std::vector<PlanCase> &cases = tierCases(),
                        bool oracle = false)
{
    ASSERT_EQ(digests.size(), cases.size());
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const PlanCase &c = cases[i];
        SCOPED_TRACE(c.stream);
        const sparse::CsrMatrix &a = c.a;
        Rng rng = Rng::forStream(0xD373F00D, c.stream);
        const std::vector<float> x = sparse::randomVector(a.cols(), rng);
        const std::vector<float> y_in = sparse::randomVector(a.rows(), rng);

        const sched::Schedule schedule = scheduler.schedule(a);
        const arch::StreamPlan plan(schedule, accel.migrationDepth());
        EXPECT_EQ(plan.memoryBytes(), arch::StreamPlan::bytesFor(schedule));

        const arch::RunResult once = accel.run(schedule, x);
        expectSameRun(once, accel.runPlanned(schedule, plan, x));
        EXPECT_EQ(yDigest(once.y), digests[i].plain);

        arch::SpmvParams params;
        params.alpha = 0.75f;
        params.beta = -1.5f;
        params.yIn = &y_in;
        const arch::RunResult once_ab = accel.run(schedule, x, params);
        expectSameRun(once_ab, accel.runPlanned(schedule, plan, x, params));
        EXPECT_EQ(yDigest(once_ab.y), digests[i].alphaBeta);

        if (oracle && accel.migrationDepth() > 0) {
            EXPECT_GT(expectReplayMatchesWalkBankByBank(
                          schedule, accel.migrationDepth(), x),
                      0u);
        }
    }
}

TEST(PerfDeterminism, PlannedSimulationMatchesRunExactly)
{
    {
        SCOPED_TRACE("chason, CrHCS depth 1");
        const arch::ArchConfig ac;
        expectPlannedMatchesRun(
            arch::ChasonAccelerator(ac), sched::CrhcsScheduler(ac.sched),
            {{0x9d2d2af1d23509caull, 0xdc857f4497eb400bull},
             {0x0d57616dd3c06c5eull, 0xe12dcc15927a89ccull},
             {0xe61b7eb618b07ae5ull, 0xdd543cc29b0512a5ull}});
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
        expectPlannedMatchesRun(
            accel, scheduler,
            {{0x4c778c9c6b0e1f53ull, 0x20f4c59eddafccebull},
             {0x2ee47a49e2709b7cull, 0xd9a34c62bcaa6739ull},
             {0x2ae8a333c1575b7cull, 0xb3125f7445dc967dull}},
            tierCases(), /*oracle=*/true);
    }
    {
        SCOPED_TRACE("serpens, PE-aware");
        arch::ArchConfig ac;
        ac.sched.migrationDepth = 0;
        const arch::SerpensAccelerator accel(ac);
        ASSERT_EQ(accel.migrationDepth(), 0u);
        expectPlannedMatchesRun(
            accel, sched::PeAwareScheduler(ac.sched),
            {{0x37886d78c8c53ef0ull, 0x18345dd55cb0bd7cull},
             {0x2f2dd0937bf9c15cull, 0xb314f1a42fe1c02eull},
             {0xd83670d8445cd63dull, 0xef6c222942251625ull}});
    }
    {
        // Every tier above fits one pass. 64 rows per lane makes a pass
        // 8192 rows, so 20000 rows take three passes, the last one
        // short (3616 rows): the banks are reset per pass to each
        // pass's own depth, and so are the plan build's RAW stamps.
        SCOPED_TRACE("chason, CrHCS multi-pass");
        arch::ArchConfig ac;
        ac.sched.rowsPerLanePerPass = 64;
        const arch::ChasonAccelerator accel(ac);
        const sched::CrhcsScheduler scheduler(ac.sched);
        Rng rng = Rng::forStream(0xD373, 64);
        std::vector<PlanCase> cases;
        cases.push_back(
            {64, sparse::erdosRenyi(20000, 12000, 160000, rng)});
        const sched::Schedule schedule = scheduler.schedule(cases[0].a);
        ASSERT_EQ(schedule.passes(), 3u);
        ASSERT_LT(sched::passDepth(schedule, 2),
                  sched::passDepth(schedule, 0));
        expectPlannedMatchesRun(
            accel, scheduler,
            {{0x3cece83d9b6c2652ull, 0x106c075eccbf7564ull}}, cases,
            /*oracle=*/true);
    }
}

/** A small geometry whose schedules are cheap to corrupt by hand. */
arch::ArchConfig
smallArch()
{
    arch::ArchConfig ac;
    ac.sched.channels = 4;
    ac.sched.pesOverride = 4;
    ac.sched.rawDistance = 4;
    ac.sched.windowCols = 128;
    ac.sched.rowsPerLanePerPass = 64;
    return ac;
}

TEST(PerfDeterminismDeathTest, RawHazardPanicsAtPlanBuildLikeTheWalk)
{
    const arch::ArchConfig ac = smallArch();
    Rng rng(0xBAD);
    const sparse::CsrMatrix a = sparse::erdosRenyi(64, 128, 700, rng);
    sched::Schedule schedule = sched::CrhcsScheduler(ac.sched).schedule(a);
    // Write channel 0's first valid slot twice more, on two adjacent
    // beats of its own lane: the same bank address one beat apart.
    sched::WindowSchedule &phase = schedule.phases[0];
    sched::BeatList &beats = phase.channels[0].beats;
    std::optional<sched::Slot> slot;
    unsigned pe = 0;
    for (std::size_t t = 0; t < beats.size() && !slot; ++t) {
        for (pe = 0; pe < ac.sched.pesPerGroup(); ++pe) {
            if (beats[t].slots[pe].valid) {
                slot = beats[t].slots[pe];
                break;
            }
        }
    }
    ASSERT_TRUE(slot.has_value());
    for (unsigned copy = 0; copy < 2; ++copy)
        beats.emplace_back().slots[pe] = *slot;
    phase.realign();
    const arch::ChasonAccelerator accel(ac);
    const std::vector<float> x(a.cols(), 1.0f);

    EXPECT_DEATH(accel.run(schedule, x), "RAW hazard at address");
    EXPECT_DEATH(arch::StreamPlan(schedule, accel.migrationDepth()),
                 "RAW hazard at address");
}

TEST(PerfDeterminismDeathTest, ForeignLanePanicsAtPlanBuildLikeTheWalk)
{
    const arch::ArchConfig ac = smallArch();
    Rng rng(0xF0E);
    const sparse::CsrMatrix a = sparse::erdosRenyi(64, 128, 700, rng);
    sched::Schedule schedule = sched::CrhcsScheduler(ac.sched).schedule(a);
    // Hand the first private slot of channel 0 to channel 1's lane.
    bool moved = false;
    sched::BeatList &beats = schedule.phases[0].channels[0].beats;
    for (std::size_t t = 0; t < beats.size() && !moved; ++t) {
        for (sched::Slot &slot : beats[t].slots) {
            if (slot.valid && slot.pvt) {
                slot.chSrc = 1;
                moved = true;
                break;
            }
        }
    }
    ASSERT_TRUE(moved);
    const arch::ChasonAccelerator accel(ac);
    const std::vector<float> x(a.cols(), 1.0f);

    EXPECT_DEATH(accel.run(schedule, x), "private slot of lane");
    EXPECT_DEATH(arch::StreamPlan(schedule, accel.migrationDepth()),
                 "private slot of lane");
}

TEST(PerfDeterminism, OnePlanReplayedByManyThreadsAtOnce)
{
    // A cached plan is shared by every worker that hits its entry: the
    // concurrent replays must each reproduce their own one-off run.
    const arch::ArchConfig ac;
    const arch::ChasonAccelerator accel(ac);
    const sparse::CsrMatrix a = tierMatrix(kTiers[1]);
    const sched::Schedule schedule =
        sched::CrhcsScheduler(ac.sched).schedule(a);
    const arch::StreamPlan plan(schedule, accel.migrationDepth());

    constexpr unsigned kThreads = 4;
    std::vector<std::vector<float>> xs;
    std::vector<arch::RunResult> once;
    for (unsigned t = 0; t < kThreads; ++t) {
        Rng rng = Rng::forStream(0x7EAD, t);
        xs.push_back(sparse::randomVector(a.cols(), rng));
        once.push_back(accel.run(schedule, xs[t]));
    }
    std::vector<arch::RunResult> replayed(kThreads);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (unsigned r = 0; r < 3; ++r)
                replayed[t] = accel.runPlanned(schedule, plan, xs[t]);
        });
    }
    for (std::thread &th : threads)
        th.join();
    for (unsigned t = 0; t < kThreads; ++t) {
        SCOPED_TRACE(t);
        expectSameRun(once[t], replayed[t]);
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
