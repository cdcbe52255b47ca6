/**
 * @file
 * Batch engine implementation.
 */

#include "core/batch_engine.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "sparse/generators.h"
#include "verify/verifier.h"

namespace chason {
namespace core {

BatchEngine::BatchEngine(BatchOptions options)
    : verifySchedules_(options.verifySchedules),
      traceSink_(options.traceSink), cache_(options.cacheBudgetBytes),
      pool_(options.workers)
{
    if (!options.artifactDir.empty())
        cache_.setArtifactDir(options.artifactDir);
}

BatchEngine::~BatchEngine() = default;

std::size_t
BatchEngine::submit(BatchJob job)
{
    chason_assert(job.matrix != nullptr, "batch job without a matrix");
    std::size_t index;
    {
        common::MutexLock lock(mutex_);
        index = nextIndex_++;
        slots_.emplace(index, Slot{std::move(job), {}, false});
    }
    pool_.post([this, index] { runJob(index); });
    return index;
}

void
BatchEngine::runJob(std::size_t index)
{
    const BatchJob *job;
    {
        common::MutexLock lock(mutex_);
        // Map nodes are address-stable, and a slot is only erased by
        // collect()/drain() after done is set below — the pointer
        // stays valid for the job's whole run.
        job = &slots_.at(index).job;
    }

    // Activate the batch's sink on this worker for the job's duration:
    // everything the job triggers (scheduling, cache traffic, the
    // simulator's device spans) is recorded. No-op without a sink.
    std::optional<trace::ScopedSink> scope;
    if (traceSink_) {
        scope.emplace(*traceSink_);
        traceSink_->sampleCounter(
            "thread_pool.queue_depth",
            static_cast<double>(pool_.queueDepth()));
    }
    trace::HostSpan span("job:" + job->dataset);

    const sparse::CsrMatrix &a = *job->matrix;
    const Engine engine(job->kind, job->config);
    Rng rng(job->xSeed);
    const std::vector<float> x = sparse::randomVector(a.cols(), rng);
    SpmvReport report = run(engine, a, x, job->dataset, job->yOut.get());

    common::MutexLock lock(mutex_);
    Slot &slot = slots_.at(index);
    slot.report = std::move(report);
    slot.done = true;
    done_.notify_all();
}

SpmvReport
BatchEngine::collect(std::size_t index)
{
    common::MutexLock lock(mutex_);
    // Re-find after every wait: the map may rehash or shed other
    // slots while we sleep, and a concurrent collect of the same
    // index (a caller bug) must trip the assert, not a stale
    // iterator.
    for (;;) {
        auto it = slots_.find(index);
        chason_assert(it != slots_.end(),
                      "collect(%zu): unknown or already-collected job",
                      index);
        if (it->second.done)
            break;
        done_.wait(mutex_);
    }
    auto it = slots_.find(index);
    SpmvReport report = std::move(it->second.report);
    slots_.erase(it);
    return report;
}

BatchReport
BatchEngine::drain()
{
    pool_.wait();

    common::MutexLock lock(mutex_);
    BatchReport batch;
    // Remaining (uncollected) slots, in submission order.
    std::vector<std::size_t> indices;
    indices.reserve(slots_.size());
    for (const auto &entry : slots_)
        indices.push_back(entry.first);
    std::sort(indices.begin(), indices.end());
    batch.reports.reserve(indices.size());
    for (const std::size_t index : indices)
        batch.reports.push_back(std::move(slots_.at(index).report));
    batch.cache = cache_.stats();
    batch.jobs = batch.reports.size();
    batch.workers = pool_.workers();
    slots_.clear();
    nextIndex_ = 0;
    return batch;
}

std::size_t
BatchEngine::pendingJobs() const
{
    common::MutexLock lock(mutex_);
    return slots_.size();
}

void
BatchEngine::parallelFor(std::size_t n,
                         const std::function<void(std::size_t)> &body)
{
    if (!traceSink_) {
        pool_.parallelFor(n, body);
        return;
    }
    pool_.parallelFor(n, [this, &body](std::size_t i) {
        trace::ScopedSink scope(*traceSink_);
        traceSink_->sampleCounter(
            "thread_pool.queue_depth",
            static_cast<double>(pool_.queueDepth()));
        body(i);
    });
}

std::shared_ptr<const sched::Schedule>
BatchEngine::schedule(const Engine &engine, const sparse::CsrMatrix &a)
{
    return schedule(engine.scheduler(), a,
                    engine.config().capacityRowsPerLane());
}

std::shared_ptr<const sched::Schedule>
BatchEngine::schedule(const sched::Scheduler &scheduler,
                      const sparse::CsrMatrix &a,
                      std::uint32_t capacityRowsPerLane)
{
    auto entry = lookup(scheduler, a, capacityRowsPerLane);
    return {entry, &entry->schedule};
}

std::shared_ptr<const CachedSchedule>
BatchEngine::lookup(const sched::Scheduler &scheduler,
                    const sparse::CsrMatrix &a,
                    std::uint32_t capacityRowsPerLane)
{
    auto entry = cache_.lookup(scheduler, a);
    if (!verifySchedules_)
        return entry;
    entry->verifyOnce([&](const sched::Schedule &schedule) {
        verify::VerifyOptions options;
        options.matrix = &a;
        options.capacityRowsPerLane = capacityRowsPerLane;
        const verify::VerifyResult result =
            verify::verifySchedule(schedule, options);
        if (!result.clean()) {
            chason_fatal("schedule verification failed (%s, %zu errors): "
                         "%s",
                         schedule.scheduler.c_str(), result.errors,
                         verify::toString(*result.firstError()).c_str());
        }
    });
    return entry;
}

SpmvReport
BatchEngine::run(const Engine &engine, const sparse::CsrMatrix &a,
                 const std::vector<float> &x, const std::string &dataset,
                 std::vector<float> *y_out, const arch::SpmvParams &params)
{
    const auto entry = lookup(engine.scheduler(), a,
                              engine.config().capacityRowsPerLane());
    return engine.runScheduled(entry->schedule, entry->stats,
                               entry->replayPlan(), a, x, dataset, y_out,
                               params);
}

Comparison
BatchEngine::compare(const sparse::CsrMatrix &a,
                     const std::vector<float> &x,
                     const std::string &dataset,
                     const arch::ArchConfig &config)
{
    Comparison cmp;
    cmp.chason = run(Engine(Engine::Kind::Chason, config), a, x, dataset);
    cmp.serpens = run(Engine(Engine::Kind::Serpens, config), a, x, dataset);
    return cmp;
}

} // namespace core
} // namespace chason
