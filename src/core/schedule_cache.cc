/**
 * @file
 * Schedule cache implementation.
 */

#include "core/schedule_cache.h"

#include <filesystem>

#include "common/bitfield.h"
#include "common/logging.h"
#include "trace/trace.h"

namespace chason {
namespace core {

namespace {

constexpr std::uint64_t kFnvOffsetA = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvOffsetB = 0x84222325cbf29ce4ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

inline void
mix(std::uint64_t &h, std::uint64_t value)
{
    for (int byte = 0; byte < 8; ++byte) {
        h ^= (value >> (byte * 8)) & 0xff;
        h *= kFnvPrime;
    }
}

} // namespace

MatrixFingerprint
fingerprint(const sparse::CsrMatrix &a)
{
    MatrixFingerprint fp{kFnvOffsetA, kFnvOffsetB};
    mix(fp.lo, a.rows());
    mix(fp.hi, a.cols());
    mix(fp.lo, a.nnz());
    mix(fp.hi, a.nnz() * 0x9e3779b97f4a7c15ull);
    for (std::size_t i = 0; i <= a.rows(); ++i)
        mix(fp.lo, a.rowPtr()[i]);
    for (std::size_t i = 0; i < a.nnz(); ++i) {
        mix(fp.lo, a.colIdx()[i]);
        mix(fp.hi,
            (static_cast<std::uint64_t>(a.colIdx()[i]) << 32) |
                floatToBits(a.values()[i]));
    }
    return fp;
}

ScheduleKey
scheduleKey(const sched::Scheduler &scheduler, const sparse::CsrMatrix &a)
{
    std::uint64_t h = kFnvOffsetA;
    for (const char c : scheduler.name())
        mix(h, static_cast<unsigned char>(c));
    const sched::SchedConfig &cfg = scheduler.config();
    mix(h, cfg.channels);
    mix(h, static_cast<std::uint64_t>(cfg.precision));
    mix(h, cfg.pesOverride);
    mix(h, cfg.rawDistance);
    mix(h, cfg.windowCols);
    mix(h, cfg.rowsPerLanePerPass);
    mix(h, cfg.migrationDepth);
    return ScheduleKey{fingerprint(a), h};
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

std::shared_ptr<const sched::Schedule>
ScheduleCache::get(const sched::Scheduler &scheduler,
                   const sparse::CsrMatrix &a)
{
    const ScheduleKey key = scheduleKey(scheduler, a);
    trace::TraceSink *sink = trace::activeSink();

    std::promise<SchedulePtr> promise;
    bool hit = false;
    std::shared_future<SchedulePtr> hit_future;
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
    SchedulePtr schedule;
    if (!artifact_path.empty()) {
        std::error_code ec;
        if (std::filesystem::exists(artifact_path, ec) && !ec) {
            std::string why;
            std::optional<sched::Schedule> loaded =
                loadArtifact(artifact_path, key, why);
            if (loaded) {
                schedule = std::make_shared<const sched::Schedule>(
                    std::move(*loaded));
            } else {
                disk_rejected = true;
                warn("schedule cache: rejecting artifact '%s': %s; "
                     "rescheduling",
                     artifact_path.c_str(), why.c_str());
            }
        }
        disk_hit = schedule != nullptr;
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
        schedule = std::make_shared<const sched::Schedule>(
            scheduler.schedule(a));
    }
    const std::size_t bytes = schedule->memoryBytes();

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
    promise.set_value(schedule);

    // Write-behind persistence: waiters are already unblocked; losing
    // the write costs a future reschedule, never a wrong result. A
    // rejected (corrupt) artifact is overwritten here, healing the
    // store in place.
    if (!artifact_path.empty() && !disk_hit) {
        sched::ArtifactError error;
        if (sched::writeArtifactFile(*schedule, artifactKey(key),
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
    return schedule;
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
