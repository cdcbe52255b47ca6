/**
 * @file
 * Tests for the thread pool and the batch execution engine: thread
 * ownership, result ordering, cache accounting, and — the load-bearing
 * guarantee — bit-identical results to the serial engine for any
 * worker count.
 */

#include "core/batch_engine.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sparse/generators.h"

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
    return sparse::erdosRenyi(96, 96, 900, rng);
}

/** Every SpmvReport field must match bit for bit. */
void
expectIdentical(const SpmvReport &a, const SpmvReport &b)
{
    EXPECT_EQ(a.accelerator, b.accelerator);
    EXPECT_EQ(a.dataset, b.dataset);
    EXPECT_EQ(a.rows, b.rows);
    EXPECT_EQ(a.cols, b.cols);
    EXPECT_EQ(a.nnz, b.nnz);
    EXPECT_EQ(a.frequencyMhz, b.frequencyMhz);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.latencyMs, b.latencyMs);
    EXPECT_EQ(a.gflops, b.gflops);
    EXPECT_EQ(a.powerW, b.powerW);
    EXPECT_EQ(a.energyEfficiency, b.energyEfficiency);
    EXPECT_EQ(a.bandwidthEfficiency, b.bandwidthEfficiency);
    EXPECT_EQ(a.underutilizationPercent, b.underutilizationPercent);
    EXPECT_EQ(a.perPegUnderutilization, b.perPegUnderutilization);
    EXPECT_EQ(a.matrixStreamBytes, b.matrixStreamBytes);
    EXPECT_EQ(a.totalBytes, b.totalBytes);
    EXPECT_EQ(a.functionalError, b.functionalError);
}

BatchJob
job(std::uint64_t matrixSeed, Engine::Kind kind, const std::string &tag)
{
    BatchJob j;
    j.dataset = tag;
    j.matrix = std::make_shared<const sparse::CsrMatrix>(matrix(matrixSeed));
    j.kind = kind;
    j.config = smallConfig();
    j.xSeed = 0xABC0 + matrixSeed;
    return j;
}

/** Live threads of this process per /proc/self/status, or -1. */
int
liveThreads()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("Threads:", 0) == 0)
            return std::atoi(line.c_str() + 8);
    }
    return -1;
}

// The two thread-ownership tests come first in this binary so that no
// earlier test can have started (and kept) threads of its own.

TEST(ThreadOwnership, EngineSchedulingStartsNoThreads)
{
    const int before = liveThreads();
    if (before < 0)
        GTEST_SKIP() << "/proc/self/status unavailable";
    Rng rng(0x7EAD);
    const sparse::CsrMatrix a = sparse::rmat(12, 1u << 16, rng);
    const Engine engine(Engine::Kind::Chason);
    EXPECT_GT(engine.schedule(a).nnz, 0u);
    EXPECT_EQ(liveThreads(), before);
}

TEST(ThreadOwnership, BatchEngineAddsOnlyItsWorkers)
{
    // ThreadSanitizer starts a helper thread along with the process's
    // first extra thread; a live one-worker pool gets that out of the
    // way before the baseline is read.
    const ThreadPool first(1);
    const int before = liveThreads();
    if (before < 0)
        GTEST_SKIP() << "/proc/self/status unavailable";
    Rng rng(0x7EAE);
    const sparse::CsrMatrix a = sparse::rmat(12, 1u << 16, rng);
    const Engine engine(Engine::Kind::Chason);
    BatchOptions options;
    options.workers = 2;
    BatchEngine batch(options);
    // Schedule from inside the pool, the way served jobs do.
    batch.parallelFor(2, [&](std::size_t) {
        EXPECT_GT(batch.schedule(engine, a)->nnz, 0u);
    });
    EXPECT_EQ(liveThreads(), before + 2);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.workers(), 4u);

    constexpr std::size_t kN = 500;
    std::vector<std::atomic<int>> counts(kN);
    pool.parallelFor(kN, [&](std::size_t i) { ++counts[i]; });
    for (std::size_t i = 0; i < kN; ++i)
        EXPECT_EQ(counts[i].load(), 1);
}

TEST(ThreadPool, WaitDrainsPostedTasks)
{
    ThreadPool pool(3);
    std::atomic<int> done{0};
    for (int i = 0; i < 64; ++i)
        pool.post([&done] { ++done; });
    pool.wait();
    EXPECT_EQ(done.load(), 64);
}

TEST(BatchEngine, ResultsBitIdenticalToSerialEngine)
{
    BatchOptions options;
    options.workers = 4;
    BatchEngine batch(options);

    std::vector<BatchJob> jobs;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        jobs.push_back(job(seed, Engine::Kind::Chason, "c"));
        jobs.push_back(job(seed, Engine::Kind::Serpens, "s"));
    }
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(batch.submit(jobs[i]), i);
    const BatchReport report = batch.drain();

    ASSERT_EQ(report.reports.size(), jobs.size());
    EXPECT_EQ(report.jobs, jobs.size());
    EXPECT_EQ(report.workers, 4u);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const Engine engine(jobs[i].kind, jobs[i].config);
        Rng rng(jobs[i].xSeed);
        const std::vector<float> x =
            sparse::randomVector(jobs[i].matrix->cols(), rng);
        expectIdentical(report.reports[i],
                        engine.run(*jobs[i].matrix, x, jobs[i].dataset));
    }
}

TEST(BatchEngine, SameSeedSameJobsAnyWorkerCount)
{
    auto runBatch = [](unsigned workers) {
        BatchOptions options;
        options.workers = workers;
        BatchEngine batch(options);
        for (std::uint64_t seed = 1; seed <= 6; ++seed)
            batch.submit(job(seed, seed % 2 == 0
                                       ? Engine::Kind::Chason
                                       : Engine::Kind::Serpens,
                             "m" + std::to_string(seed)));
        return batch.drain();
    };

    const BatchReport serial = runBatch(1);
    const BatchReport parallel = runBatch(4);
    ASSERT_EQ(serial.reports.size(), parallel.reports.size());
    for (std::size_t i = 0; i < serial.reports.size(); ++i)
        expectIdentical(serial.reports[i], parallel.reports[i]);

    // The cache sees the same key set either way.
    EXPECT_EQ(serial.cache.hits, parallel.cache.hits);
    EXPECT_EQ(serial.cache.misses, parallel.cache.misses);
}

TEST(BatchEngine, JobsShareTheCallersMatrix)
{
    BatchOptions options;
    options.workers = 2;
    BatchEngine batch(options);
    const auto a = std::make_shared<const sparse::CsrMatrix>(matrix(4));
    ASSERT_EQ(a.use_count(), 1);

    std::vector<std::size_t> indices;
    for (int copy = 0; copy < 2; ++copy) {
        BatchJob j = job(4, Engine::Kind::Chason, "shared");
        j.matrix = a;
        indices.push_back(batch.submit(std::move(j)));
    }
    // Each queued job holds the caller's matrix: none was copied.
    EXPECT_EQ(a.use_count(), 3);
    batch.collect(indices[0]);
    EXPECT_EQ(a.use_count(), 2);
    batch.collect(indices[1]);
    EXPECT_EQ(a.use_count(), 1);
}

TEST(BatchEngine, SharedMatrixReportsBitIdenticalAnyWorkerCount)
{
    const auto a = std::make_shared<const sparse::CsrMatrix>(matrix(5));
    auto runBatch = [&a](unsigned workers) {
        BatchOptions options;
        options.workers = workers;
        BatchEngine batch(options);
        for (std::uint64_t i = 0; i < 8; ++i) {
            BatchJob j = job(5,
                             i % 2 == 0 ? Engine::Kind::Chason
                                        : Engine::Kind::Serpens,
                             "shared" + std::to_string(i));
            j.matrix = a;
            j.xSeed = 0x5A5A + i;
            batch.submit(std::move(j));
        }
        return batch.drain();
    };

    const BatchReport serial = runBatch(1);
    for (const unsigned workers : {2u, 4u}) {
        const BatchReport parallel = runBatch(workers);
        ASSERT_EQ(serial.reports.size(), parallel.reports.size());
        for (std::size_t i = 0; i < serial.reports.size(); ++i)
            expectIdentical(serial.reports[i], parallel.reports[i]);
    }
    // And each matches a one-off Engine::run, which analyzes per call.
    for (std::uint64_t i = 0; i < serial.reports.size(); ++i) {
        const Engine engine(i % 2 == 0 ? Engine::Kind::Chason
                                       : Engine::Kind::Serpens,
                            smallConfig());
        Rng rng(0x5A5A + i);
        const std::vector<float> x = sparse::randomVector(a->cols(), rng);
        expectIdentical(serial.reports[i],
                        engine.run(*a, x, "shared" + std::to_string(i)));
    }
    EXPECT_EQ(a.use_count(), 1);
}

TEST(BatchEngine, SecondUseOfAnEntryBuildsExactlyOnePlan)
{
    trace::TraceSink sink;
    BatchOptions options;
    options.workers = 4;
    options.traceSink = &sink;
    BatchEngine batch(options);
    const auto a = std::make_shared<const sparse::CsrMatrix>(matrix(6));
    const Engine engine(Engine::Kind::Chason, smallConfig());
    auto submitCopies = [&](unsigned copies) {
        for (unsigned copy = 0; copy < copies; ++copy) {
            BatchJob j = job(6, Engine::Kind::Chason, "plan");
            j.matrix = a;
            batch.submit(std::move(j));
        }
        return batch.drain();
    };
    auto planBuilds = [&sink] {
        const auto counters = sink.counters();
        const auto it = counters.find("schedule_cache.plan_builds");
        return it == counters.end() ? std::uint64_t{0} : it->second;
    };

    // Used once: the job walked, as a one-off run does; no plan.
    const BatchReport once = submitCopies(1);
    EXPECT_FALSE(batch.cache().lookup(engine.scheduler(), *a)->planBuilt());
    EXPECT_EQ(planBuilds(), 0u);

    // Four workers hit it at once: one plan between them, and every
    // replayed report equals the walked one.
    const BatchReport again = submitCopies(4);
    EXPECT_TRUE(batch.cache().lookup(engine.scheduler(), *a)->planBuilt());
    if (CHASON_TRACE_ENABLED) {
        EXPECT_EQ(planBuilds(), 1u);
    }
    for (const SpmvReport &report : again.reports)
        expectIdentical(once.reports[0], report);
}

TEST(BatchEngine, VerifyingRefilledEntriesChangesNoReport)
{
    // A one-byte budget keeps only the newest entry, so alternating two
    // matrices evicts and refills on every lookup, and every refill is
    // a new entry that is verified again.
    auto runBatch = [](bool verify) {
        BatchOptions options;
        options.workers = 1;
        options.cacheBudgetBytes = 1;
        options.verifySchedules = verify;
        BatchEngine batch(options);
        for (std::uint64_t i = 0; i < 6; ++i)
            batch.submit(job(1 + i % 2, Engine::Kind::Chason,
                             "refill" + std::to_string(i)));
        return batch.drain();
    };

    const BatchReport plain = runBatch(false);
    const BatchReport verified = runBatch(true);
    EXPECT_EQ(verified.cache.misses, 6u);
    EXPECT_EQ(verified.cache.evictions, 5u);
    ASSERT_EQ(plain.reports.size(), verified.reports.size());
    for (std::size_t i = 0; i < plain.reports.size(); ++i)
        expectIdentical(plain.reports[i], verified.reports[i]);
}

TEST(BatchEngine, ConcurrentFirstUsesVerifyAnEntryOnce)
{
    BatchOptions options;
    options.workers = 4;
    options.verifySchedules = true;
    BatchEngine batch(options);
    const auto a = std::make_shared<const sparse::CsrMatrix>(matrix(7));
    for (unsigned copy = 0; copy < 4; ++copy) {
        BatchJob j = job(7, Engine::Kind::Chason, "verify");
        j.matrix = a;
        batch.submit(std::move(j));
    }
    const BatchReport report = batch.drain();
    ASSERT_EQ(report.reports.size(), 4u);
    for (const SpmvReport &r : report.reports)
        expectIdentical(report.reports[0], r);

    // The entry is verified: a later check does not run.
    const Engine engine(Engine::Kind::Chason, smallConfig());
    std::atomic<unsigned> checks{0};
    const auto verifiedEntry = batch.cache().lookup(engine.scheduler(), *a);
    verifiedEntry->verifyOnce(
        [&](const sched::Schedule &) { checks.fetch_add(1); });
    EXPECT_EQ(checks.load(), 0u);

    // Four workers at a fresh entry's first use: one check between them.
    const auto b = std::make_shared<const sparse::CsrMatrix>(matrix(8));
    const auto fresh = batch.cache().lookup(engine.scheduler(), *b);
    batch.parallelFor(4, [&](std::size_t) {
        fresh->verifyOnce(
            [&](const sched::Schedule &) { checks.fetch_add(1); });
    });
    EXPECT_EQ(checks.load(), 1u);
}

TEST(BatchEngine, DuplicateJobsHitTheSharedCache)
{
    BatchOptions options;
    options.workers = 4;
    BatchEngine batch(options);

    // Three copies of the same (matrix, config) job plus one distinct.
    for (int copy = 0; copy < 3; ++copy)
        batch.submit(job(1, Engine::Kind::Chason, "dup"));
    batch.submit(job(2, Engine::Kind::Chason, "other"));
    const BatchReport report = batch.drain();

    EXPECT_EQ(report.cache.misses, 2u); // one per distinct schedule
    EXPECT_EQ(report.cache.hits, 2u);   // the duplicate copies
    expectIdentical(report.reports[0], report.reports[1]);
    expectIdentical(report.reports[1], report.reports[2]);
}

TEST(BatchEngine, DrainStartsAFreshBatch)
{
    BatchEngine batch(BatchOptions{2, ScheduleCache::kDefaultBudgetBytes});
    batch.submit(job(1, Engine::Kind::Chason, "a"));
    EXPECT_EQ(batch.drain().reports.size(), 1u);

    // Indices restart; the cache carries over (same key: a hit).
    EXPECT_EQ(batch.submit(job(1, Engine::Kind::Chason, "a")), 0u);
    const BatchReport second = batch.drain();
    EXPECT_EQ(second.reports.size(), 1u);
    EXPECT_EQ(second.cache.hits, 1u);
}

TEST(BatchEngine, CollectRetiresOneJobAndMatchesDrain)
{
    BatchOptions options;
    options.workers = 2;
    BatchEngine streaming(options);
    BatchEngine batch(options);

    // Reference reports through the batch path.
    const std::size_t i0 = batch.submit(job(1, Engine::Kind::Chason, "a"));
    const std::size_t i1 = batch.submit(job(2, Engine::Kind::Chason, "b"));
    ASSERT_EQ(i0, 0u);
    ASSERT_EQ(i1, 1u);
    const BatchReport reference = batch.drain();

    // Streaming path: collect out of submission order.
    const std::size_t s0 =
        streaming.submit(job(1, Engine::Kind::Chason, "a"));
    const std::size_t s1 =
        streaming.submit(job(2, Engine::Kind::Chason, "b"));
    const SpmvReport r1 = streaming.collect(s1);
    const SpmvReport r0 = streaming.collect(s0);
    expectIdentical(r0, reference.reports[0]);
    expectIdentical(r1, reference.reports[1]);
    EXPECT_EQ(streaming.pendingJobs(), 0u);

    // drain() after per-job retirement sees only uncollected jobs.
    const std::size_t s2 =
        streaming.submit(job(3, Engine::Kind::Chason, "c"));
    streaming.collect(s2);
    streaming.submit(job(4, Engine::Kind::Chason, "d"));
    const BatchReport rest = streaming.drain();
    ASSERT_EQ(rest.reports.size(), 1u);
    EXPECT_EQ(rest.reports[0].dataset, "d");
    // Indices restart after drain.
    EXPECT_EQ(streaming.submit(job(5, Engine::Kind::Chason, "e")), 0u);
    streaming.drain();
}

TEST(BatchEngine, CollectOfUnknownIndexDies)
{
    BatchOptions options;
    options.workers = 1;
    BatchEngine engine(options);
    const std::size_t index =
        engine.submit(job(1, Engine::Kind::Chason, "a"));
    engine.collect(index);
    EXPECT_DEATH(engine.collect(index), "already-collected");
    EXPECT_DEATH(engine.collect(1234), "unknown");
}

// The streaming-caller regression: submitting 10k jobs while
// collecting keeps the engine at O(window) slots — before the retire
// path, jobs_/reports_ (and every submitted matrix) grew until
// drain().
TEST(BatchEngine, SteadyStateMemoryIsBoundedOver10kSubmits)
{
    BatchOptions options;
    options.workers = 4;
    BatchEngine engine(options);

    // Tiny jobs; the point is slot accounting, not simulation work.
    const auto a = std::make_shared<const sparse::CsrMatrix>(matrix(7));
    constexpr std::size_t kSubmits = 10000;
    constexpr std::size_t kWindow = 16;
    std::size_t maxPending = 0;
    std::vector<std::size_t> inFlight;
    inFlight.reserve(kWindow);
    for (std::size_t i = 0; i < kSubmits; ++i) {
        BatchJob j;
        j.dataset = "steady";
        j.matrix = a;
        j.config = smallConfig();
        j.xSeed = 0x5EED + (i % 8);
        inFlight.push_back(engine.submit(std::move(j)));
        if (inFlight.size() == kWindow) {
            for (const std::size_t index : inFlight)
                engine.collect(index);
            inFlight.clear();
            maxPending = std::max(maxPending, engine.pendingJobs());
        }
    }
    for (const std::size_t index : inFlight)
        engine.collect(index);
    // Steady state never accumulates beyond the in-flight window.
    EXPECT_LE(maxPending, kWindow);
    EXPECT_EQ(engine.pendingJobs(), 0u);
    EXPECT_EQ(engine.drain().reports.size(), 0u);
}

TEST(BatchEngine, ParallelForSharesTheCache)
{
    BatchOptions options;
    options.workers = 4;
    BatchEngine batch(options);
    const sparse::CsrMatrix a = matrix(3);

    std::vector<std::shared_ptr<const sched::Schedule>> seen(8);
    batch.parallelFor(seen.size(), [&](std::size_t i) {
        const Engine engine(Engine::Kind::Chason, smallConfig());
        seen[i] = batch.schedule(engine, a);
    });
    for (std::size_t i = 1; i < seen.size(); ++i)
        EXPECT_EQ(seen[0].get(), seen[i].get());
    EXPECT_EQ(batch.cache().stats().misses, 1u);
}

} // namespace
} // namespace core
} // namespace chason
