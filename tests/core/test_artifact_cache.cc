/**
 * @file
 * Tests for the ScheduleCache disk tier: disk-hit promotion across
 * cache instances, memory eviction with the artifact store intact,
 * corrupt-artifact fallback (and write-behind healing), foreign-key
 * rejection, and the serving determinism contract — a schedule loaded
 * zero-copy from an artifact simulates bit-identically, report JSON
 * included, to the freshly scheduled original.
 */

#include "core/schedule_cache.h"

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/report_json.h"
#include "sched/artifact.h"
#include "sched/schedule.h"
#include "sparse/generators.h"

// Count thread creations by interposing pthread_create (std::thread
// calls it through the dynamic linker, which finds this definition
// first). Sanitizer runtimes intercept pthread_create themselves, so
// the counter is compiled out there and its test skips.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CHASON_COUNT_THREADS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CHASON_COUNT_THREADS 0
#endif
#endif
#ifndef CHASON_COUNT_THREADS
#define CHASON_COUNT_THREADS 1
#endif

#if CHASON_COUNT_THREADS
#include <dlfcn.h>
#include <pthread.h>

namespace {
std::atomic<unsigned> threadsCreated{0};
} // namespace

extern "C" int
pthread_create(pthread_t *thread, const pthread_attr_t *attr,
               void *(*start)(void *), void *arg) noexcept
{
    using Create = int (*)(pthread_t *, const pthread_attr_t *,
                           void *(*)(void *), void *);
    static const Create real =
        reinterpret_cast<Create>(dlsym(RTLD_NEXT, "pthread_create"));
    threadsCreated.fetch_add(1);
    return real(thread, attr, start, arg);
}
#endif

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

/** Fresh per-test artifact directory under the gtest temp root. */
std::string
artifactDir(const char *name)
{
    const std::string dir =
        ::testing::TempDir() + "chason_cache_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

/** The store path the cache uses for @p engine's schedule of @p a. */
std::string
storedPath(const std::string &dir, const Engine &engine,
           const sparse::CsrMatrix &a)
{
    const ScheduleKey key = scheduleKey(engine.scheduler(), a);
    return dir + "/" +
           sched::artifactFileName(
               {key.matrix.lo, key.matrix.hi, key.scheduler});
}

void
flipByte(const std::string &path, std::uint64_t offset)
{
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&byte, 1);
    ASSERT_TRUE(f.good());
}

TEST(ArtifactCache, MissPersistsAndFreshCachePromotesFromDisk)
{
    const std::string dir = artifactDir("promote");
    Engine engine(Engine::Kind::Chason, smallConfig());
    const sparse::CsrMatrix a = matrix(1);

    ScheduleCache writer;
    writer.setArtifactDir(dir);
    const auto fresh = writer.get(engine, a);
    EXPECT_EQ(writer.stats().misses, 1u);
    EXPECT_EQ(writer.stats().diskMisses, 1u);
    EXPECT_EQ(writer.stats().diskHits, 0u);
    EXPECT_EQ(writer.stats().persisted, 1u);
    EXPECT_TRUE(std::filesystem::exists(storedPath(dir, engine, a)));

    // A fresh process (cache instance) over the same store: the memory
    // miss is served by the artifact, not by rescheduling.
    ScheduleCache reader;
    reader.setArtifactDir(dir);
    const auto promoted = reader.get(engine, a);
    EXPECT_EQ(reader.stats().misses, 1u);
    EXPECT_EQ(reader.stats().diskHits, 1u);
    EXPECT_EQ(reader.stats().diskMisses, 0u);
    EXPECT_EQ(reader.stats().persisted, 0u); // disk hits are not rewritten
    // Same schedule bits; the promoted copy costs less private memory
    // because its beats alias the file-backed mapping.
    EXPECT_EQ(sched::scheduleArtifactBytes(*promoted),
              sched::scheduleArtifactBytes(*fresh));
    EXPECT_LT(promoted->memoryBytes(), fresh->memoryBytes());

    // Promotion populated the memory tier: the next get is a plain hit.
    reader.get(engine, a);
    EXPECT_EQ(reader.stats().hits, 1u);
    std::filesystem::remove_all(dir);
}

TEST(ArtifactCache, MemoryEvictionLeavesDiskTierIntact)
{
    const std::string dir = artifactDir("evict");
    Engine engine(Engine::Kind::Chason, smallConfig());
    const sparse::CsrMatrix a = matrix(2);
    const sparse::CsrMatrix b = matrix(3);

    ScheduleCache cache(1); // 1-byte budget: each insert evicts the last
    cache.setArtifactDir(dir);
    cache.get(engine, a);
    cache.get(engine, b); // evicts a from memory; a's artifact remains
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.stats().persisted, 2u);

    // Re-requesting the evicted key is a memory miss served from disk —
    // the eviction cost CrHCS nothing.
    cache.get(engine, a);
    EXPECT_EQ(cache.stats().diskHits, 1u);
    EXPECT_EQ(cache.stats().diskMisses, 2u); // only the two cold fills
    EXPECT_EQ(cache.stats().persisted, 2u);
    std::filesystem::remove_all(dir);
}

TEST(ArtifactCache, ClearedMemoryTierIsRefilledFromDisk)
{
    const std::string dir = artifactDir("clear");
    Engine engine(Engine::Kind::Chason, smallConfig());
    const sparse::CsrMatrix a = matrix(4);

    ScheduleCache cache;
    cache.setArtifactDir(dir);
    cache.get(engine, a);
    cache.clear(); // memory tier only; the artifact survives
    cache.get(engine, a);
    EXPECT_EQ(cache.stats().diskHits, 1u);
    EXPECT_EQ(cache.stats().misses, 2u);
    std::filesystem::remove_all(dir);
}

TEST(ArtifactCache, CorruptArtifactFallsBackAndHeals)
{
    const std::string dir = artifactDir("corrupt");
    Engine engine(Engine::Kind::Chason, smallConfig());
    const sparse::CsrMatrix a = matrix(5);

    ScheduleCache writer;
    writer.setArtifactDir(dir);
    const auto fresh = writer.get(engine, a);
    const std::string path = storedPath(dir, engine, a);

    // Corrupt the beat payload: open() passes, the digest rejects.
    flipByte(path, std::filesystem::file_size(path) - 9);

    ScheduleCache reader;
    reader.setArtifactDir(dir);
    const auto rescheduled = reader.get(engine, a);
    EXPECT_EQ(reader.stats().corrupt, 1u);
    EXPECT_EQ(reader.stats().diskHits, 0u);
    EXPECT_EQ(reader.stats().diskMisses, 1u);
    // The fallback is transparent: the schedule is the real one.
    EXPECT_EQ(sched::scheduleArtifactBytes(*rescheduled),
              sched::scheduleArtifactBytes(*fresh));
    // And the write-behind persist healed the store in place.
    EXPECT_EQ(reader.stats().persisted, 1u);

    ScheduleCache healed;
    healed.setArtifactDir(dir);
    healed.get(engine, a);
    EXPECT_EQ(healed.stats().diskHits, 1u);
    EXPECT_EQ(healed.stats().corrupt, 0u);
    std::filesystem::remove_all(dir);
}

TEST(ArtifactCache, ForeignKeyedArtifactIsRejected)
{
    const std::string dir = artifactDir("foreign");
    Engine engine(Engine::Kind::Chason, smallConfig());
    const sparse::CsrMatrix a = matrix(6);
    const sparse::CsrMatrix b = matrix(7);

    ScheduleCache writer;
    writer.setArtifactDir(dir);
    writer.get(engine, a);

    // Plant a's artifact under b's canonical name: the embedded key
    // must veto serving it, whatever the filename claims.
    std::filesystem::copy_file(storedPath(dir, engine, a),
                               storedPath(dir, engine, b));

    ScheduleCache reader;
    reader.setArtifactDir(dir);
    reader.get(engine, b);
    EXPECT_EQ(reader.stats().corrupt, 1u);
    EXPECT_EQ(reader.stats().diskHits, 0u);
    std::filesystem::remove_all(dir);
}

// A disk hit runs on the caller's thread, often a BatchEngine worker:
// even an artifact whose payload spans several 4 MiB checksum chunks
// is verified without starting a thread.
TEST(ArtifactCache, MultiChunkDiskHitStartsNoThread)
{
#if !CHASON_COUNT_THREADS
    GTEST_SKIP() << "the sanitizer runtime owns pthread_create";
#else
    const std::string dir = artifactDir("no_threads");
    const Engine engine(Engine::Kind::Chason);
    Rng rng(9);
    const sparse::CsrMatrix a = sparse::rmat(15, std::size_t{1} << 19, rng);
    {
        ScheduleCache writer;
        writer.setArtifactDir(dir);
        writer.get(engine, a);
        ASSERT_EQ(writer.stats().persisted, 1u);
    }
    {
        sched::ArtifactError error;
        const sched::ArtifactReader reader = sched::ArtifactReader::open(
            storedPath(dir, engine, a), &error);
        ASSERT_TRUE(reader.ok()) << error.detail;
        ASSERT_GT(reader.info().payloadBytes, sched::kArtifactChunkBytes);
    }

    // The counter sees std::thread, or this test would prove nothing.
    const unsigned probe = threadsCreated.load();
    std::thread([] {}).join();
    ASSERT_EQ(threadsCreated.load() - probe, 1u);

    ScheduleCache reader;
    reader.setArtifactDir(dir);
    const unsigned before = threadsCreated.load();
    reader.get(engine, a);
    EXPECT_EQ(threadsCreated.load() - before, 0u);
    EXPECT_EQ(reader.stats().diskHits, 1u);
    std::filesystem::remove_all(dir);
#endif
}

TEST(ArtifactCache, StatsJsonCarriesDiskTierCounters)
{
    const std::string dir = artifactDir("json");
    Engine engine(Engine::Kind::Chason, smallConfig());
    ScheduleCache cache;
    cache.setArtifactDir(dir);
    cache.get(engine, matrix(8));

    const std::string json = toJson(cache.stats());
    EXPECT_NE(json.find("\"disk_hits\":0"), std::string::npos);
    EXPECT_NE(json.find("\"disk_misses\":1"), std::string::npos);
    EXPECT_NE(json.find("\"persisted\":1"), std::string::npos);
    EXPECT_NE(json.find("\"corrupt\":0"), std::string::npos);
    std::filesystem::remove_all(dir);
}

/** Delegating scheduler that counts how often schedule() really runs. */
class CountingScheduler : public sched::Scheduler
{
  public:
    CountingScheduler(const Engine &engine, std::atomic<int> &builds)
        : sched::Scheduler(engine.scheduler().config()),
          inner_(engine.scheduler()), builds_(builds)
    {
    }

    std::string name() const override { return inner_.name(); }

    sched::Schedule schedule(const sparse::CsrMatrix &m) const override
    {
        ++builds_;
        return inner_.schedule(m);
    }

  private:
    const sched::Scheduler &inner_;
    std::atomic<int> &builds_;
};

/**
 * The daemon's hot-path race: N threads miss on the same key of a
 * disk-backed cache at once. Exactly one may build, the rest must
 * coalesce onto it, and the write-behind persist must produce one
 * valid (untorn) artifact.
 */
TEST(ArtifactCache, ConcurrentSameKeyMissBuildsAndPersistsOnce)
{
    const std::string dir = artifactDir("race");
    Engine engine(Engine::Kind::Chason, smallConfig());
    const sparse::CsrMatrix a = matrix(9);
    std::atomic<int> builds{0};
    const CountingScheduler counting(engine, builds);

    ScheduleCache cache;
    cache.setArtifactDir(dir);

    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const sched::Schedule>> results(
        kThreads);
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&, i] {
            // Rendezvous so the gets really overlap.
            ++ready;
            while (ready.load() < kThreads) {
            }
            results[i] = cache.get(counting, a);
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    EXPECT_EQ(builds.load(), 1);
    for (int i = 1; i < kThreads; ++i)
        EXPECT_EQ(results[i], results[0]); // one shared instance
    const ScheduleCacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kThreads - 1));
    EXPECT_EQ(stats.diskMisses, 1u);
    EXPECT_EQ(stats.diskHits, 0u);
    EXPECT_EQ(stats.persisted, 1u);

    // The single persisted artifact is valid: a fresh cache admits it
    // as a disk hit with zero corruption, and the loaded schedule has
    // the same bits as the built one.
    ScheduleCache reader;
    reader.setArtifactDir(dir);
    const auto loaded = reader.get(counting, a);
    EXPECT_EQ(reader.stats().diskHits, 1u);
    EXPECT_EQ(reader.stats().corrupt, 0u);
    EXPECT_EQ(builds.load(), 1); // served from disk, not rebuilt
    EXPECT_EQ(sched::scheduleArtifactBytes(*loaded),
              sched::scheduleArtifactBytes(*results[0]));
    std::filesystem::remove_all(dir);
}

/**
 * The serving determinism contract, across three matrix tiers: an
 * artifact-loaded schedule must simulate bit-identically to the
 * freshly scheduled one — identical cycle counts, identical report
 * JSON, identical output vectors to the last bit.
 */
TEST(ArtifactCache, LoadedScheduleSimulatesBitIdenticallyAcrossTiers)
{
    const std::string dir = artifactDir("determinism");
    Engine engine(Engine::Kind::Chason, smallConfig());

    struct Tier
    {
        const char *name;
        sparse::CsrMatrix a;
    };
    Rng rng(40);
    std::vector<Tier> tiers;
    tiers.push_back({"rmat", sparse::rmat(8, 2048, rng)});
    tiers.push_back({"erdos", sparse::erdosRenyi(200, 160, 3000, rng)});
    tiers.push_back({"arrow", sparse::arrowBanded(512, 5, 0.4, 2, rng)});

    for (const Tier &tier : tiers) {
        SCOPED_TRACE(tier.name);
        ScheduleCache writer;
        writer.setArtifactDir(dir);
        const auto fresh = writer.get(engine, tier.a);

        ScheduleCache reader;
        reader.setArtifactDir(dir);
        const auto loaded = reader.get(engine, tier.a);
        ASSERT_EQ(reader.stats().diskHits, 1u);

        Rng vec(41);
        const std::vector<float> x =
            sparse::randomVector(tier.a.cols(), vec);
        std::vector<float> y_fresh, y_loaded;
        const SpmvReport r_fresh = engine.runScheduled(
            *fresh, tier.a, x, tier.name, &y_fresh);
        const SpmvReport r_loaded = engine.runScheduled(
            *loaded, tier.a, x, tier.name, &y_loaded);

        EXPECT_EQ(r_fresh.cycles, r_loaded.cycles);
        EXPECT_EQ(toJson(r_fresh), toJson(r_loaded));
        ASSERT_EQ(y_fresh.size(), y_loaded.size());
        ASSERT_GT(y_fresh.size(), 0u);
        EXPECT_EQ(0, std::memcmp(y_fresh.data(), y_loaded.data(),
                                 y_fresh.size() * sizeof(float)));
    }
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace core
} // namespace chason
