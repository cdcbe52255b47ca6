/**
 * @file
 * Concurrent LRU cache of offline schedules.
 *
 * CrHCS scheduling is host-side preprocessing and by far the dominant
 * offline cost (see bench_preprocessing_cost): iterative applications
 * (PageRank, CG, GNN layers) reuse one schedule across thousands of
 * runs, sweeps revisit the same matrix under several consumers, and
 * services multiplexing several matrices want to keep the hot ones
 * resident. ScheduleCache keys schedules by a structural+value
 * fingerprint of the matrix *combined with the scheduler's identity
 * and configuration*, holds them behind shared ownership, and evicts
 * least-recently-used entries once a byte budget is exceeded.
 *
 * Thread safety: every member function may be called concurrently
 * from any number of threads. Concurrent misses on the *same* key are
 * coalesced — exactly one thread schedules, the others block on the
 * result and are counted as hits (the work was amortized). Returned
 * schedules are immutable and shared: eviction never invalidates a
 * shared_ptr a caller still holds.
 */

#ifndef CHASON_CORE_SCHEDULE_CACHE_H_
#define CHASON_CORE_SCHEDULE_CACHE_H_

#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "arch/stream_soa.h"
#include "common/thread_annotations.h"
#include "core/engine.h"
#include "sched/artifact.h"

namespace chason {
namespace core {

/**
 * 128-bit matrix fingerprint: two FNV-1a words over the shape and the
 * bulk digests (common::artifactHash) of rowPtr, colIdx and values.
 */
struct MatrixFingerprint
{
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;

    friend bool operator==(const MatrixFingerprint &,
                           const MatrixFingerprint &) = default;
};

/** Fingerprint a CSR matrix: dimensions, structure and values. */
MatrixFingerprint fingerprint(const sparse::CsrMatrix &a);

/**
 * Cache key: which matrix, scheduled by which algorithm under which
 * geometry. Two engines with identical scheduler configurations share
 * entries; changing any SchedConfig field (or the algorithm) misses.
 */
struct ScheduleKey
{
    MatrixFingerprint matrix;
    std::uint64_t scheduler = 0; ///< hash of algorithm name + config

    friend bool operator==(const ScheduleKey &,
                           const ScheduleKey &) = default;
};

/** Key for @p scheduler applied to @p a. */
ScheduleKey scheduleKey(const sched::Scheduler &scheduler,
                        const sparse::CsrMatrix &a);

/** The CHSA identity a schedule cached under @p key is stored with. */
sched::ArtifactKey artifactKey(const ScheduleKey &key);

/**
 * Admit the stored schedule at @p path: open it, require that it
 * carries @p key, verify its payload digest and load it zero-copy. This
 * is the one admission sequence behind the disk tier and every tool
 * that reads a schedule file. On rejection returns nullopt and sets
 * @p why to the ArtifactStatus name and detail, or to "foreign key";
 * it never panics on a malformed file.
 */
std::optional<sched::Schedule> loadArtifact(const std::string &path,
                                            const ScheduleKey &key,
                                            std::string &why);

/**
 * What a cache entry holds: the schedule, its sched::analyze()
 * statistics, computed once when the entry is filled, and its
 * arch::StreamPlan, built on the entry's first simulation. All three
 * depend only on the schedule and are shared by every request that
 * hits the entry; the plan lives and dies with it. An entry reached
 * only for its schedule builds no plan.
 */
class CachedSchedule
{
  public:
    CachedSchedule(sched::Schedule sch, sched::ScheduleStats st);

    CachedSchedule(const CachedSchedule &) = delete;
    CachedSchedule &operator=(const CachedSchedule &) = delete;

    const sched::Schedule schedule;
    const sched::ScheduleStats stats;

    /**
     * Resident bytes: the schedule's, the statistics' and the plan's
     * (arch::StreamPlan::bytesFor). The plan is counted from the moment
     * the entry is filled, built or not, so the size never changes.
     */
    std::size_t memoryBytes() const;

    /**
     * The plan every simulation of the entry replays (depth
     * schedule.config.migrationDepth). The first call builds it under
     * std::call_once; concurrent callers wait for that one build, and
     * every later call returns it at once.
     */
    const arch::StreamPlan &plan() const;

    /**
     * Run @p check on the schedule once per entry: the first caller
     * runs it under std::call_once, concurrent callers wait for it and
     * later callers return at once. The flag lives and dies with the
     * entry, so a refilled entry is checked again.
     */
    template <typename Check>
    void verifyOnce(Check &&check) const
    {
        std::call_once(verifyOnce_, std::forward<Check>(check), schedule);
    }

  private:
    mutable std::once_flag verifyOnce_;
    mutable std::once_flag planOnce_;
    /** Written once, inside planOnce_; read after it. */
    mutable std::unique_ptr<const arch::StreamPlan> plan_;
};

/** Counter snapshot; taken atomically with respect to cache updates. */
struct ScheduleCacheStats
{
    std::uint64_t hits = 0;      ///< resident or in-flight on lookup
    std::uint64_t misses = 0;    ///< lookups that had to leave memory
    std::uint64_t evictions = 0; ///< entries dropped for the budget
    std::uint64_t diskHits = 0;  ///< memory misses served by an artifact
    std::uint64_t diskMisses = 0; ///< disk probes that had to reschedule
    std::uint64_t persisted = 0; ///< artifacts written behind a miss
    std::uint64_t corrupt = 0;   ///< artifacts rejected at admission
    std::size_t entries = 0;     ///< resident schedules
    std::size_t bytes = 0;       ///< resident schedule bytes
    std::size_t budgetBytes = 0; ///< configured byte budget

    /** hits / (hits + misses); 0 when the cache is untouched. */
    double hitRate() const
    {
        const std::uint64_t total = hits + misses;
        return total == 0
            ? 0.0
            : static_cast<double>(hits) / static_cast<double>(total);
    }
};

/** Concurrent LRU schedule cache with a byte budget. */
class ScheduleCache
{
  public:
    /** Default budget: 512 MiB of resident schedules. */
    static constexpr std::size_t kDefaultBudgetBytes =
        std::size_t{512} << 20;

    /**
     * @param budget_bytes resident-byte budget (>= 1). The most
     *        recently inserted entry is always admitted, even when it
     *        alone exceeds the budget — a cache that cannot hold the
     *        working entry would silently degrade to rescheduling.
     */
    explicit ScheduleCache(std::size_t budget_bytes = kDefaultBudgetBytes);

    /**
     * Attach a disk tier rooted at @p dir (created if missing): memory
     * misses first probe `dir/chsa-<key>.chsa` through the CHSA
     * admission checks (sched::ArtifactReader) and zero-copy load on a
     * hit; fresh schedules are persisted write-behind, after waiters
     * have been unblocked. An artifact that fails admission is
     * rejected, counted in stats().corrupt, transparently replaced by
     * rescheduling, and overwritten by the persist that follows. An
     * empty @p dir detaches the tier. Not synchronized against
     * concurrent get() — configure before handing the cache to
     * workers, as BatchEngine does.
     */
    void setArtifactDir(const std::string &dir);

    /** The disk-tier root; empty when the tier is detached. */
    const std::string &artifactDir() const { return artifactDir_; }

    /**
     * The entry for @p scheduler applied to @p a: resident if the key
     * matches, otherwise loaded from the disk tier or freshly
     * scheduled, analyzed and cached. Blocks only when another thread
     * is already filling the same key.
     */
    std::shared_ptr<const CachedSchedule>
    lookup(const sched::Scheduler &scheduler, const sparse::CsrMatrix &a)
        EXCLUDES(mutex_);

    /** The schedule of lookup()'s entry; it keeps the entry alive. */
    std::shared_ptr<const sched::Schedule>
    get(const sched::Scheduler &scheduler, const sparse::CsrMatrix &a)
        EXCLUDES(mutex_)
    {
        auto entry = lookup(scheduler, a);
        return {entry, &entry->schedule};
    }

    /** Convenience overload: @p engine's scheduler fills misses. */
    std::shared_ptr<const sched::Schedule>
    get(const Engine &engine, const sparse::CsrMatrix &a)
    {
        return get(engine.scheduler(), a);
    }

    /** Atomic snapshot of all counters. */
    ScheduleCacheStats stats() const EXCLUDES(mutex_);

    /**
     * Drop every resident memory-tier entry (counters are kept). The
     * disk tier is untouched: a subsequent get() of a dropped key is a
     * memory miss that the artifact store serves as a disk hit.
     */
    void clear() EXCLUDES(mutex_);

    /**
     * Byte-accounting consistency check for tests: residentBytes_
     * equals the sum of ready entry bytes, the LRU list and the entry
     * map agree. Debug builds additionally run this (fatally) after
     * every mutation.
     */
    bool debugCheckConsistency() const EXCLUDES(mutex_);

  private:
    struct KeyHash
    {
        std::size_t operator()(const ScheduleKey &key) const
        {
            // The fingerprint words are already well mixed.
            return static_cast<std::size_t>(
                key.matrix.lo ^ (key.matrix.hi >> 1) ^ key.scheduler);
        }
    };

    using EntryPtr = std::shared_ptr<const CachedSchedule>;

    struct Entry
    {
        /** Set once by the filling thread; waited on by the others. */
        std::shared_future<EntryPtr> future;
        std::size_t bytes = 0; ///< 0 while scheduling is in flight
        bool ready = false;
        std::list<ScheduleKey>::iterator lruIt;
    };

    /** Evict ready LRU entries until the budget holds. Lock held. */
    void enforceBudgetLocked() REQUIRES(mutex_);

    /** Fatal consistency check after mutations; no-op in NDEBUG. */
    void debugCheckConsistencyLocked() const REQUIRES(mutex_);

    // enforceBudgetLocked() bumps TraceSink counters with mutex_ held,
    // which fixes the lock order: ScheduleCache::mutex_ before
    // TraceSink::mutex_ (docs/STATIC_ANALYSIS.md has the full table).
    mutable common::Mutex mutex_;
    std::size_t budgetBytes_ GUARDED_BY(mutex_);
    std::size_t residentBytes_ GUARDED_BY(mutex_) = 0;
    /** Memory tier, front = most recently used. */
    std::list<ScheduleKey> lru_ GUARDED_BY(mutex_);
    /** Memory tier + miss-coalescing map: a !ready entry is the
     *  in-flight future concurrent misses on the same key block on. */
    std::unordered_map<ScheduleKey, Entry, KeyHash>
        entries_ GUARDED_BY(mutex_);
    /** Disk-tier root; empty = memory only. Deliberately unguarded:
     *  configured once before the cache is shared (see setArtifactDir)
     *  and read-only afterwards. */
    std::string artifactDir_;
    std::uint64_t hits_ GUARDED_BY(mutex_) = 0;
    std::uint64_t misses_ GUARDED_BY(mutex_) = 0;
    std::uint64_t evictions_ GUARDED_BY(mutex_) = 0;
    std::uint64_t diskHits_ GUARDED_BY(mutex_) = 0;
    std::uint64_t diskMisses_ GUARDED_BY(mutex_) = 0;
    /** Artifact write-behind counter (bumped after waiters unblock). */
    std::uint64_t persisted_ GUARDED_BY(mutex_) = 0;
    std::uint64_t corrupt_ GUARDED_BY(mutex_) = 0;
};

} // namespace core
} // namespace chason

#endif // CHASON_CORE_SCHEDULE_CACHE_H_
