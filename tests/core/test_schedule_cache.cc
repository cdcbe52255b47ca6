/**
 * @file
 * Tests for the concurrent schedule cache: keying, LRU byte budget,
 * counters, and multi-threaded hammering on shared and distinct keys.
 */

#include "core/schedule_cache.h"

#include <bit>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/report_json.h"
#include "sched/crhcs.h"
#include "sched/pe_aware.h"
#include "sparse/generators.h"
#include "trace/trace.h"

namespace chason {
namespace core {
namespace {

arch::ArchConfig
smallConfig()
{
    arch::ArchConfig cfg;
    cfg.sched.channels = 4;
    cfg.sched.pesOverride = 4;
    cfg.sched.rawDistance = 4;
    cfg.sched.windowCols = 128;
    cfg.sched.rowsPerLanePerPass = 64;
    return cfg;
}

sparse::CsrMatrix
matrix(std::uint64_t seed)
{
    Rng rng(seed);
    return sparse::erdosRenyi(64, 128, 700, rng);
}

TEST(Fingerprint, DeterministicAndSensitive)
{
    const sparse::CsrMatrix a = matrix(1);
    EXPECT_EQ(fingerprint(a), fingerprint(a));
    EXPECT_FALSE(fingerprint(a) == fingerprint(matrix(2)));

    // A single value change must alter the fingerprint.
    sparse::CooMatrix coo1(4, 4), coo2(4, 4);
    coo1.add(1, 2, 1.0f);
    coo2.add(1, 2, 1.5f);
    EXPECT_FALSE(fingerprint(coo1.toCsr()) ==
                 fingerprint(coo2.toCsr()));

    // A structure change (same nnz) too.
    sparse::CooMatrix coo3(4, 4);
    coo3.add(2, 1, 1.0f);
    EXPECT_FALSE(fingerprint(coo1.toCsr()) ==
                 fingerprint(coo3.toCsr()));
}

/** Fingerprint of a @p rows x @p cols CSR matrix built from @p entries. */
MatrixFingerprint
fingerprintOf(std::uint32_t rows, std::uint32_t cols,
              const std::vector<sparse::Triplet> &entries)
{
    return fingerprint(sparse::CsrMatrix(rows, cols, entries));
}

TEST(Fingerprint, EachCsrArrayAndTheShapeAreKeyed)
{
    const std::vector<sparse::Triplet> base = {
        {0, 1, 1.0f}, {1, 2, 2.0f}, {1, 3, 3.0f}};
    const MatrixFingerprint fp = fingerprintOf(4, 4, base);

    // One bit of one value (values only).
    std::vector<sparse::Triplet> flipped = base;
    flipped[1].value =
        std::bit_cast<float>(std::bit_cast<std::uint32_t>(2.0f) ^ 1u);
    EXPECT_FALSE(fingerprintOf(4, 4, flipped) == fp);

    // +0 and -0 compare equal as floats but are different matrices.
    std::vector<sparse::Triplet> zero = base;
    zero[1].value = 0.0f;
    std::vector<sparse::Triplet> negZero = base;
    negZero[1].value = -0.0f;
    EXPECT_FALSE(fingerprintOf(4, 4, zero) == fingerprintOf(4, 4, negZero));

    // The last nonzero moves to the next row: colIdx and values stay
    // [1, 2, 3] and [1, 2, 3], only rowPtr changes.
    std::vector<sparse::Triplet> moved = base;
    moved[2].row = 2;
    EXPECT_FALSE(fingerprintOf(4, 4, moved) == fp);

    // Two column indices swapped (colIdx only): rows 0 and 1 hold one
    // equal value each.
    EXPECT_FALSE(fingerprintOf(4, 4, {{0, 1, 1.0f}, {1, 2, 1.0f}}) ==
                 fingerprintOf(4, 4, {{0, 2, 1.0f}, {1, 1, 1.0f}}));

    // The same three arrays under a wider shape.
    EXPECT_FALSE(fingerprintOf(4, 5, base) == fp);
    EXPECT_FALSE(fingerprintOf(5, 4, base) == fp);

    // A copy is the same matrix.
    const sparse::CsrMatrix a = matrix(1);
    const sparse::CsrMatrix copy = a;
    EXPECT_EQ(fingerprint(copy), fingerprint(a));
}

TEST(ScheduleKeyTest, SchedulerIdentityAndConfigAreKeyed)
{
    const sparse::CsrMatrix a = matrix(1);
    const sched::SchedConfig cfg = smallConfig().sched;

    // Same scheduler + config + matrix: same key.
    EXPECT_EQ(scheduleKey(sched::PeAwareScheduler(cfg), a),
              scheduleKey(sched::PeAwareScheduler(cfg), a));

    // Different algorithm on the same matrix: different key.
    sched::SchedConfig crhcsCfg = cfg;
    crhcsCfg.migrationDepth = 1;
    EXPECT_FALSE(scheduleKey(sched::PeAwareScheduler(cfg), a) ==
                 scheduleKey(sched::CrhcsScheduler(crhcsCfg), a));

    // Different geometry: different key.
    sched::SchedConfig wide = cfg;
    wide.rawDistance = 8;
    EXPECT_FALSE(scheduleKey(sched::PeAwareScheduler(cfg), a) ==
                 scheduleKey(sched::PeAwareScheduler(wide), a));

    // Different matrix: different key.
    EXPECT_FALSE(scheduleKey(sched::PeAwareScheduler(cfg), a) ==
                 scheduleKey(sched::PeAwareScheduler(cfg), matrix(2)));
}

TEST(ScheduleCache, HitsAfterFirstMiss)
{
    Engine engine(Engine::Kind::Chason, smallConfig());
    ScheduleCache cache;
    const sparse::CsrMatrix a = matrix(3);

    const auto first = cache.lookup(engine.scheduler(), a);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 0u);
    const auto second = cache.get(engine, a);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(&first->schedule, second.get()); // same resident object
    // The entry's bytes cover its statistics as well as its schedule.
    EXPECT_GT(first->memoryBytes(), first->schedule.memoryBytes());
    EXPECT_EQ(cache.stats().bytes, first->memoryBytes());
}

TEST(ScheduleCache, EnginesWithEqualConfigShareEntries)
{
    Engine e1(Engine::Kind::Chason, smallConfig());
    Engine e2(Engine::Kind::Chason, smallConfig());
    ScheduleCache cache;
    const sparse::CsrMatrix a = matrix(3);

    cache.get(e1, a);
    cache.get(e2, a);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);

    // The Serpens engine schedules differently: separate entry.
    Engine serpens(Engine::Kind::Serpens, smallConfig());
    cache.get(serpens, a);
    EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(ScheduleCache, EvictsLeastRecentlyUsedOverByteBudget)
{
    Engine engine(Engine::Kind::Serpens, smallConfig());
    const sparse::CsrMatrix a = matrix(4);
    const sparse::CsrMatrix b = matrix(5);

    // Budget of exactly one schedule: inserting the second must evict
    // the least recently used first, whatever b's exact size.
    ScheduleCache probe;
    const std::size_t one =
        probe.lookup(engine.scheduler(), a)->memoryBytes();

    ScheduleCache cache(one);
    const auto sa = cache.lookup(engine.scheduler(), a);
    cache.get(engine, b); // over budget: evicts a
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.stats().entries, 1u);

    // Shared ownership: the evicted schedule we still hold is intact.
    EXPECT_EQ(sa->memoryBytes(), one);

    cache.get(engine, b); // most recent: still resident
    EXPECT_EQ(cache.stats().hits, 1u);
    cache.get(engine, a); // was evicted: schedules again
    EXPECT_EQ(cache.stats().misses, 3u);
}

TEST(ScheduleCache, OversizedEntryIsStillAdmitted)
{
    Engine engine(Engine::Kind::Chason, smallConfig());
    ScheduleCache cache(1); // 1-byte budget: everything is oversized
    const sparse::CsrMatrix a = matrix(6);

    cache.get(engine, a);
    EXPECT_EQ(cache.stats().entries, 1u); // MRU entry is never evicted
    cache.get(engine, a);
    EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ScheduleCache, ByteAccountingSurvivesOversizedInserts)
{
    // Every insert exceeds the 1-byte budget; resident bytes must track
    // exactly the MRU survivor, never accumulate ghosts of evicted
    // entries (the residentBytes_ / lru_ consistency contract).
    Engine engine(Engine::Kind::Chason, smallConfig());
    ScheduleCache cache(1);
    const sparse::CsrMatrix a = matrix(20);
    const sparse::CsrMatrix b = matrix(21);

    const auto sa = cache.lookup(engine.scheduler(), a);
    EXPECT_EQ(cache.stats().bytes, sa->memoryBytes());
    EXPECT_TRUE(cache.debugCheckConsistency());

    const auto sb = cache.lookup(engine.scheduler(), b); // evicts a
    EXPECT_EQ(cache.stats().entries, 1u);
    EXPECT_EQ(cache.stats().bytes, sb->memoryBytes());
    EXPECT_TRUE(cache.debugCheckConsistency());
}

TEST(ScheduleCache, ReinsertAfterEvictionAccountsCurrentSize)
{
    // a is inserted, evicted, then rescheduled: the second insert must
    // account the fresh instance's size, not double-count or reuse the
    // first accounting.
    Engine engine(Engine::Kind::Serpens, smallConfig());
    const sparse::CsrMatrix a = matrix(22);
    const sparse::CsrMatrix b = matrix(23);

    ScheduleCache probe;
    const std::size_t a_bytes =
        probe.lookup(engine.scheduler(), a)->memoryBytes();

    ScheduleCache cache(a_bytes);
    cache.get(engine, a);
    cache.get(engine, b); // evicts a
    EXPECT_TRUE(cache.debugCheckConsistency());
    const auto again = cache.lookup(engine.scheduler(), a); // evicts b
    EXPECT_EQ(cache.stats().bytes, again->memoryBytes());
    EXPECT_EQ(cache.stats().entries, 1u);
    EXPECT_TRUE(cache.debugCheckConsistency());
}

TEST(ScheduleCache, ConsistentAfterClearAndConcurrentRefill)
{
    Engine engine(Engine::Kind::Chason, smallConfig());
    ScheduleCache cache;
    cache.get(engine, matrix(24));
    cache.clear();
    EXPECT_TRUE(cache.debugCheckConsistency());

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            cache.get(engine, matrix(30 + t % 2));
        });
    }
    for (std::thread &th : threads)
        th.join();
    EXPECT_EQ(cache.stats().entries, 2u);
    EXPECT_TRUE(cache.debugCheckConsistency());
}

TEST(ScheduleCache, ClearKeepsCounters)
{
    Engine engine(Engine::Kind::Chason, smallConfig());
    ScheduleCache cache;
    cache.get(engine, matrix(9));
    cache.clear();
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.stats().bytes, 0u);
    EXPECT_EQ(cache.stats().misses, 1u);
    cache.get(engine, matrix(9));
    EXPECT_EQ(cache.stats().misses, 2u); // refilled after clear
}

TEST(ScheduleCache, CachedScheduleRunsCorrectly)
{
    Engine engine(Engine::Kind::Chason, smallConfig());
    ScheduleCache cache;
    const sparse::CsrMatrix a = matrix(7);
    Rng rng(8);
    const std::vector<float> x = sparse::randomVector(a.cols(), rng);

    const SpmvReport direct = engine.run(a, x);
    const SpmvReport via_cache =
        engine.runScheduled(*cache.get(engine, a), a, x);
    EXPECT_EQ(direct.cycles, via_cache.cycles);
    EXPECT_LE(via_cache.functionalError, 1.0);
}

/** schedule_cache.plan_builds as counted by @p sink so far. */
std::uint64_t
planBuilds(const trace::TraceSink &sink)
{
    const auto counters = sink.counters();
    const auto it = counters.find("schedule_cache.plan_builds");
    return it == counters.end() ? std::uint64_t{0} : it->second;
}

TEST(ScheduleCache, PlanBuildsOnFirstRunAndKeepsTheEntrySize)
{
    trace::TraceSink sink;
    trace::ScopedSink scope(sink);
    Engine engine(Engine::Kind::Chason, smallConfig());
    ScheduleCache cache;
    const sparse::CsrMatrix a = matrix(11);
    const auto entry = cache.lookup(engine.scheduler(), a);
    // The plan's closed-form bytes are counted from the fill on.
    const std::size_t bytes = cache.stats().bytes;
    EXPECT_EQ(bytes, entry->memoryBytes());
    EXPECT_EQ(entry->memoryBytes(),
              entry->schedule.memoryBytes() + sizeof(entry->stats) +
                  entry->stats.perPegUnderutilization.capacity() *
                      sizeof(double) +
                  arch::StreamPlan::bytesFor(entry->schedule));
    EXPECT_EQ(planBuilds(sink), 0u); // a lookup builds nothing

    // The first run builds the plan; later runs replay the same one.
    Rng rng(11);
    const std::vector<float> x = sparse::randomVector(a.cols(), rng);
    const std::string first = toJson(engine.runScheduled(
        entry->schedule, entry->stats, entry->plan(), a, x));
    const arch::StreamPlan &plan = entry->plan();
    EXPECT_EQ(&entry->plan(), &plan);
    if (CHASON_TRACE_ENABLED) {
        EXPECT_EQ(planBuilds(sink), 1u);
    }
    EXPECT_EQ(toJson(engine.runScheduled(entry->schedule, entry->stats,
                                         plan, a, x)),
              first);
    EXPECT_EQ(toJson(engine.runScheduled(entry->schedule, a, x)), first);
    EXPECT_EQ(plan.memoryBytes(),
              arch::StreamPlan::bytesFor(entry->schedule));
    EXPECT_TRUE(plan.matches(entry->schedule,
                             engine.accelerator().migrationDepth()));

    EXPECT_EQ(cache.stats().bytes, bytes);
    EXPECT_EQ(entry->memoryBytes(), bytes);
    EXPECT_TRUE(cache.debugCheckConsistency());
}

TEST(ScheduleCache, ConcurrentFirstRunsShareOnePlan)
{
    trace::TraceSink sink;
    Engine engine(Engine::Kind::Chason, smallConfig());
    ScheduleCache cache;
    const auto entry = cache.lookup(engine.scheduler(), matrix(12));

    // Four first runs at once: one builds, the other three wait for
    // that one build and get the same plan.
    constexpr unsigned kThreads = 4;
    std::vector<const arch::StreamPlan *> seen(kThreads);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            trace::ScopedSink scope(sink);
            seen[t] = &entry->plan();
        });
    }
    for (std::thread &th : threads)
        th.join();

    for (const arch::StreamPlan *p : seen)
        EXPECT_EQ(p, &entry->plan());
    if (CHASON_TRACE_ENABLED) {
        EXPECT_EQ(planBuilds(sink), 1u);
    }
}

TEST(ScheduleCache, EvictedEntryFreesItsPlan)
{
    Engine engine(Engine::Kind::Serpens, smallConfig());
    const sparse::CsrMatrix a = matrix(13);
    const sparse::CsrMatrix b = matrix(14);

    ScheduleCache probe;
    ScheduleCache cache(probe.lookup(engine.scheduler(), a)->memoryBytes());
    std::weak_ptr<const CachedSchedule> weak;
    {
        const auto entry = cache.lookup(engine.scheduler(), a);
        entry->plan();
        weak = entry;
        cache.get(engine, b); // over budget: evicts a
        EXPECT_EQ(cache.stats().evictions, 1u);
        EXPECT_FALSE(weak.expired()); // still held here
    }
    // The plan is a member of the entry: the last release frees both.
    EXPECT_TRUE(weak.expired());
    EXPECT_EQ(cache.stats().bytes,
              cache.lookup(engine.scheduler(), b)->memoryBytes());
}

TEST(ScheduleCache, ConcurrentSameKeyCoalescesToOneScheduling)
{
    Engine engine(Engine::Kind::Chason, smallConfig());
    ScheduleCache cache;
    const sparse::CsrMatrix a = matrix(10);

    constexpr unsigned kThreads = 8;
    constexpr unsigned kRounds = 16;
    std::vector<std::shared_ptr<const sched::Schedule>> seen(kThreads);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (unsigned r = 0; r < kRounds; ++r)
                seen[t] = cache.get(engine, a);
        });
    }
    for (std::thread &th : threads)
        th.join();

    const ScheduleCacheStats s = cache.stats();
    EXPECT_EQ(s.misses, 1u); // exactly one thread scheduled
    EXPECT_EQ(s.hits, kThreads * kRounds - 1u);
    EXPECT_EQ(s.entries, 1u);
    for (unsigned t = 1; t < kThreads; ++t)
        EXPECT_EQ(seen[0].get(), seen[t].get());
}

TEST(ScheduleCache, ConcurrentDistinctKeysAllResident)
{
    Engine engine(Engine::Kind::Serpens, smallConfig());
    ScheduleCache cache;

    constexpr unsigned kThreads = 8;
    std::vector<sparse::CsrMatrix> matrices;
    for (unsigned t = 0; t < kThreads; ++t)
        matrices.push_back(matrix(100 + t));

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            // Each thread first fills its own key, then hits the
            // others' (or coalesces with their in-flight fill).
            cache.get(engine, matrices[t]);
            for (unsigned o = 0; o < kThreads; ++o)
                cache.get(engine, matrices[o]);
        });
    }
    for (std::thread &th : threads)
        th.join();

    const ScheduleCacheStats s = cache.stats();
    EXPECT_EQ(s.misses, kThreads);
    EXPECT_EQ(s.hits, kThreads * (kThreads + 1) - kThreads);
    EXPECT_EQ(s.entries, kThreads);
    EXPECT_EQ(s.evictions, 0u);
}

} // namespace
} // namespace core
} // namespace chason
