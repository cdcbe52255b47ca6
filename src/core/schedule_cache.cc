/**
 * @file
 * Schedule cache implementation.
 */

#include "core/schedule_cache.h"

#include <filesystem>

#include "common/hash.h"
#include "common/logging.h"
#include "trace/trace.h"

namespace chason {
namespace core {

MatrixFingerprint
fingerprint(const sparse::CsrMatrix &a)
{
    // The shape plus one bulk digest per CSR array: a change confined
    // to one array (a nonzero moved to the next row touches only
    // rowPtr) changes that array's digest.
    const auto digest = [](const auto &array) {
        return common::artifactHash(array.data(),
                                    array.size() * sizeof(array[0]));
    };
    const std::uint64_t words[] = {
        a.rows(),           a.cols(),           a.nnz(),
        digest(a.rowPtr()), digest(a.colIdx()), digest(a.values()),
    };
    constexpr std::uint64_t kSecondOffset = 0x84222325cbf29ce4ull;
    return {common::fnv1a(words, sizeof(words)),
            common::fnv1a(words, sizeof(words), kSecondOffset)};
}

ScheduleKey
scheduleKey(const sched::Scheduler &scheduler, const sparse::CsrMatrix &a)
{
    const sched::SchedConfig &cfg = scheduler.config();
    const std::uint64_t fields[] = {
        cfg.channels,
        static_cast<std::uint64_t>(cfg.precision),
        cfg.pesOverride,
        cfg.rawDistance,
        cfg.windowCols,
        cfg.rowsPerLanePerPass,
        cfg.migrationDepth,
    };
    return ScheduleKey{
        fingerprint(a),
        common::fnv1a(fields, sizeof(fields),
                      common::fnv1a(scheduler.name()))};
}

sched::ArtifactKey
artifactKey(const ScheduleKey &key)
{
    return {key.matrix.lo, key.matrix.hi, key.scheduler};
}

std::optional<sched::Schedule>
loadArtifact(const std::string &path, const ScheduleKey &key,
             std::string &why)
{
    // Any defect — bad magic, foreign version, truncation, structural
    // damage, a key for another matrix or scheduler, checksum
    // mismatch — rejects the file; a bad store can cost time, never
    // correctness.
    trace::HostSpan span("artifact.load");
    sched::ArtifactError error;
    const auto status = [&error] {
        return std::string(sched::artifactStatusName(error.status)) +
            " (" + error.detail + ")";
    };
    const sched::ArtifactReader reader =
        sched::ArtifactReader::open(path, &error);
    if (!reader.ok()) {
        why = status();
        return std::nullopt;
    }
    if (!(reader.info().key == artifactKey(key))) {
        why = "foreign key";
        return std::nullopt;
    }
    if (!reader.payloadIntact(&error)) {
        why = status();
        return std::nullopt;
    }
    // Zero copy: the schedule's beats alias the mapping.
    return reader.load();
}

ScheduleCache::ScheduleCache(std::size_t budget_bytes)
    : budgetBytes_(budget_bytes)
{
    chason_assert(budgetBytes_ >= 1, "cache needs a positive byte budget");
}

void
ScheduleCache::setArtifactDir(const std::string &dir)
{
    if (!dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
        if (ec) {
            warn("schedule cache: cannot create artifact dir '%s' (%s); "
                 "disk tier disabled",
                 dir.c_str(), ec.message().c_str());
            artifactDir_.clear();
            return;
        }
    }
    artifactDir_ = dir;
}

CachedSchedule::CachedSchedule(sched::Schedule sch,
                               sched::ScheduleStats st)
    : schedule(std::move(sch)), stats(std::move(st))
{
}

std::size_t
CachedSchedule::memoryBytes() const
{
    return schedule.memoryBytes() + sizeof(stats) +
        stats.perPegUnderutilization.capacity() * sizeof(double) +
        arch::StreamPlan::bytesFor(schedule);
}

const arch::StreamPlan &
CachedSchedule::plan() const
{
    std::call_once(planOnce_, [this] {
        trace::HostSpan span("plan:" + schedule.scheduler);
        plan_ = std::make_unique<const arch::StreamPlan>(
            schedule, schedule.config.migrationDepth);
        if (trace::TraceSink *sink = trace::activeSink())
            sink->addCounter("schedule_cache.plan_builds");
    });
    return *plan_;
}

std::shared_ptr<const CachedSchedule>
ScheduleCache::lookup(const sched::Scheduler &scheduler,
                      const sparse::CsrMatrix &a)
{
    const ScheduleKey key = scheduleKey(scheduler, a);
    trace::TraceSink *sink = trace::activeSink();

    std::promise<EntryPtr> promise;
    bool hit = false;
    std::shared_future<EntryPtr> hit_future;
    {
        common::MutexLock lock(mutex_);
        const auto it = entries_.find(key);
        if (it != entries_.end()) {
            // Resident or in flight: either way the scheduling work is
            // amortized, so both count as hits.
            ++hits_;
            lru_.splice(lru_.begin(), lru_, it->second.lruIt);
            hit = true;
            hit_future = it->second.future;
        } else {
            ++misses_;
            Entry entry;
            entry.future = promise.get_future().share();
            lru_.push_front(key);
            entry.lruIt = lru_.begin();
            entries_.emplace(key, std::move(entry));
        }
    }
    if (hit) {
        // Blocking on the future happens outside the critical section:
        // an in-flight fill must not serialize unrelated lookups.
        if (sink) {
            sink->addCounter("schedule_cache.hits");
            sink->recordInstant("cache_hit", trace::hostTrack(),
                                sink->nowUs());
        }
        return hit_future.get();
    }
    if (sink) {
        sink->addCounter("schedule_cache.misses");
        sink->recordInstant("cache_miss", trace::hostTrack(),
                            sink->nowUs());
    }

    // Disk tier: probe the artifact store before paying for CrHCS. The
    // probe runs without the lock for the same reason scheduling does —
    // its latency must not serialize unrelated lookups.
    const std::string artifact_path = artifactDir_.empty()
        ? std::string()
        : artifactDir_ + "/" + sched::artifactFileName(artifactKey(key));
    bool disk_hit = false;
    bool disk_rejected = false;
    std::optional<sched::Schedule> schedule;
    if (!artifact_path.empty()) {
        std::error_code ec;
        if (std::filesystem::exists(artifact_path, ec) && !ec) {
            std::string why;
            schedule = loadArtifact(artifact_path, key, why);
            if (!schedule) {
                disk_rejected = true;
                warn("schedule cache: rejecting artifact '%s': %s; "
                     "rescheduling",
                     artifact_path.c_str(), why.c_str());
            }
        }
        disk_hit = schedule.has_value();
        if (sink) {
            sink->addCounter(disk_hit ? "schedule_cache.disk_hit"
                                      : "schedule_cache.disk_miss");
            sink->recordInstant(disk_hit ? "cache_disk_hit"
                                         : "cache_disk_miss",
                                trace::hostTrack(), sink->nowUs());
        }
    }

    // Schedule outside the lock: this is the expensive part and the
    // whole point of running jobs concurrently.
    if (!disk_hit) {
        trace::HostSpan span("schedule:" + scheduler.name());
        schedule = scheduler.schedule(a);
    }
    // The statistics depend only on the schedule: every request that
    // hits this entry shares them.
    sched::ScheduleStats stats = sched::analyze(*schedule);
    const EntryPtr entry = std::make_shared<const CachedSchedule>(
        std::move(*schedule), std::move(stats));
    const std::size_t bytes = entry->memoryBytes();

    {
        common::MutexLock lock(mutex_);
        const auto it = entries_.find(key);
        // The filling thread owns the pending entry until this point:
        // neither clear() nor eviction touches a !ready entry, so the
        // lookup must succeed. Guard re-insertion anyway — if a future
        // change makes an entry ready twice, adding its bytes twice
        // would corrupt residentBytes_ permanently.
        chason_assert(it != entries_.end(),
                      "in-flight cache entry disappeared");
        if (!it->second.ready) {
            it->second.ready = true;
            it->second.bytes = bytes;
            residentBytes_ += bytes;
            enforceBudgetLocked();
        }
        if (!artifact_path.empty()) {
            disk_hit ? ++diskHits_ : ++diskMisses_;
            if (disk_rejected)
                ++corrupt_;
        }
        debugCheckConsistencyLocked();
    }
    promise.set_value(entry);

    // Write-behind persistence: waiters are already unblocked; losing
    // the write costs a future reschedule, never a wrong result. A
    // rejected (corrupt) artifact is overwritten here, healing the
    // store in place.
    if (!artifact_path.empty() && !disk_hit) {
        sched::ArtifactError error;
        if (sched::writeArtifactFile(entry->schedule, artifactKey(key),
                                     artifact_path, &error)) {
            {
                common::MutexLock lock(mutex_);
                ++persisted_;
            }
            if (sink) {
                sink->addCounter("schedule_cache.persist");
                sink->recordInstant("cache_persist", trace::hostTrack(),
                                    sink->nowUs());
            }
        } else {
            warn("schedule cache: cannot persist artifact '%s': %s (%s)",
                 artifact_path.c_str(),
                 sched::artifactStatusName(error.status),
                 error.detail.c_str());
        }
    }
    return entry;
}

void
ScheduleCache::enforceBudgetLocked()
{
    trace::TraceSink *sink = trace::activeSink();
    auto it = lru_.end();
    while (residentBytes_ > budgetBytes_ && it != lru_.begin()) {
        --it;
        if (it == lru_.begin())
            break; // always keep the most recently used entry
        const auto entryIt = entries_.find(*it);
        chason_assert(entryIt != entries_.end(), "LRU/map out of sync");
        if (!entryIt->second.ready)
            continue; // in flight: bytes unknown, cannot evict
        chason_assert(residentBytes_ >= entryIt->second.bytes,
                      "resident bytes underflow on eviction");
        residentBytes_ -= entryIt->second.bytes;
        it = lru_.erase(it);
        entries_.erase(entryIt);
        ++evictions_;
        if (sink) {
            sink->addCounter("schedule_cache.evictions");
            sink->recordInstant("cache_evict", trace::hostTrack(),
                                sink->nowUs());
        }
    }
}

void
ScheduleCache::debugCheckConsistencyLocked() const
{
#ifndef NDEBUG
    std::size_t ready_bytes = 0;
    std::size_t ready_entries = 0;
    for (const auto &[key, entry] : entries_) {
        (void)key;
        if (entry.ready) {
            ready_bytes += entry.bytes;
            ++ready_entries;
        } else {
            chason_assert(entry.bytes == 0,
                          "in-flight entry carries resident bytes");
        }
    }
    (void)ready_entries;
    chason_assert(ready_bytes == residentBytes_,
                  "residentBytes_ %zu != sum of ready entry bytes %zu",
                  residentBytes_, ready_bytes);
    chason_assert(lru_.size() == entries_.size(),
                  "LRU list (%zu) and entry map (%zu) diverged",
                  lru_.size(), entries_.size());
    for (const ScheduleKey &key : lru_)
        chason_assert(entries_.count(key) == 1,
                      "LRU key missing from the entry map");
#endif
}

bool
ScheduleCache::debugCheckConsistency() const
{
    common::MutexLock lock(mutex_);
    std::size_t ready_bytes = 0;
    for (const auto &[key, entry] : entries_) {
        (void)key;
        if (entry.ready)
            ready_bytes += entry.bytes;
        else if (entry.bytes != 0)
            return false;
    }
    if (ready_bytes != residentBytes_)
        return false;
    if (lru_.size() != entries_.size())
        return false;
    for (const ScheduleKey &key : lru_)
        if (entries_.count(key) != 1)
            return false;
    return true;
}

ScheduleCacheStats
ScheduleCache::stats() const
{
    common::MutexLock lock(mutex_);
    ScheduleCacheStats s;
    s.hits = hits_;
    s.misses = misses_;
    s.evictions = evictions_;
    s.diskHits = diskHits_;
    s.diskMisses = diskMisses_;
    s.persisted = persisted_;
    s.corrupt = corrupt_;
    s.entries = entries_.size();
    s.bytes = residentBytes_;
    s.budgetBytes = budgetBytes_;
    return s;
}

void
ScheduleCache::clear()
{
    common::MutexLock lock(mutex_);
    for (auto it = entries_.begin(); it != entries_.end();) {
        if (it->second.ready) {
            lru_.erase(it->second.lruIt);
            it = entries_.erase(it);
        } else {
            ++it; // in flight: the filling thread still owns it
        }
    }
    // Only ready entries contribute to residentBytes_, and all of them
    // were just dropped; in-flight entries add their bytes when they
    // complete.
    residentBytes_ = 0;
    debugCheckConsistencyLocked();
}

} // namespace core
} // namespace chason
