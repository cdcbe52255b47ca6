/**
 * @file
 * Parallel batch execution engine.
 *
 * BatchEngine runs many independent (matrix, config) SpMV jobs across
 * a worker thread pool, with every offline scheduling request funneled
 * through one shared ScheduleCache: repeated matrices across sweep
 * points, ablation legs or engine consumers skip rescheduling
 * entirely. Results land in a thread-safe report aggregated in
 * submission order, so batch output is independent of worker
 * interleaving.
 *
 * Determinism rule (see also common/rng.h): every job derives its
 * inputs from its *own* seed (BatchJob::xSeed), never from a stream
 * shared across jobs, and scheduling/simulation are deterministic pure
 * functions — so the same seed and the same job set produce
 * bit-identical reports for any worker count. tests/core/
 * test_batch_engine.cc asserts this.
 *
 * Batch callers retire everything at once with drain(); streaming
 * callers (the chason_serve daemon) retire per job with collect(),
 * which drops the job's matrix reference and frees its report
 * immediately so steady-state memory is bounded by the in-flight
 * window, not the submit count.
 *
 * Thread safety: submit(), collect(), drain(), schedule(), run(),
 * compare() and parallelFor() may be called from any thread. The
 * cache-backed helpers (schedule/run/compare) are also safe from
 * *inside* pool tasks — parallelFor bodies use them to share
 * schedules — but collect()/drain()/parallelFor() themselves must
 * only be called from outside the pool (they block on it).
 */

#ifndef CHASON_CORE_BATCH_ENGINE_H_
#define CHASON_CORE_BATCH_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "core/engine.h"
#include "core/schedule_cache.h"
#include "core/thread_pool.h"
#include "trace/trace.h"

namespace chason {
namespace core {

/** Pool and cache sizing. */
struct BatchOptions
{
    /** Worker threads; 0 selects ThreadPool::defaultWorkers(). */
    unsigned workers = 0;

    /** Schedule-cache byte budget. */
    std::size_t cacheBudgetBytes = ScheduleCache::kDefaultBudgetBytes;

    /**
     * Root of the on-disk schedule-artifact store (CHSA files). When
     * non-empty the cache runs two-tier: memory misses probe this
     * directory for a validated artifact before rescheduling, and
     * fresh schedules are persisted back write-behind. Tools expose
     * this as --artifact-dir.
     */
    std::string artifactDir;

    /**
     * Run the static schedule verifier (verify/verifier.h) on every
     * schedule produced through the engine, once per cached instance.
     * An error-severity diagnostic is fatal(): an illegal schedule must
     * never reach the simulator silently. Tools expose this as
     * --verify.
     */
    bool verifySchedules = false;

    /**
     * When set, every job/parallelFor body runs inside a
     * trace::ScopedSink on this sink: simulator device spans, cache
     * events, scheduler phase timings, job lifecycle spans and
     * queue-depth samples all land here. Tools expose this as --trace.
     * The sink must outlive the engine.
     */
    trace::TraceSink *traceSink = nullptr;
};

/** One self-contained unit of batch work. */
struct BatchJob
{
    std::string dataset;     ///< label copied into the report
    /**
     * The matrix, shared with the caller: submitting a job copies no
     * matrix, and the job's reference is released when it retires.
     * Must not be null.
     */
    std::shared_ptr<const sparse::CsrMatrix> matrix;
    Engine::Kind kind = Engine::Kind::Chason;
    arch::ArchConfig config = {};

    /** Seeds this job's dense input vector x (job-private stream). */
    std::uint64_t xSeed = 0x57EE9;

    /**
     * Optional result-vector sink: when set, the job's functional
     * output y is written here. The caller keeps its own shared_ptr
     * and must not read the vector until the job retires via
     * collect()/drain() — the serving daemon uses this to digest y
     * without the report having to carry the whole vector.
     */
    std::shared_ptr<std::vector<float>> yOut;
};

/** What drain() returns: per-job reports plus batch-level accounting. */
struct BatchReport
{
    /** One report per submitted job, in submission order. */
    std::vector<SpmvReport> reports;

    /** Cache counters at drain time. */
    ScheduleCacheStats cache;

    /** Jobs executed by this drain. */
    std::size_t jobs = 0;

    /** Workers that served the batch. */
    unsigned workers = 0;
};

/** Thread-pool-backed batch scheduler/simulator with a shared cache. */
class BatchEngine
{
  public:
    explicit BatchEngine(BatchOptions options = {});
    ~BatchEngine();

    BatchEngine(const BatchEngine &) = delete;
    BatchEngine &operator=(const BatchEngine &) = delete;

    unsigned workers() const { return pool_.workers(); }
    ScheduleCache &cache() { return cache_; }
    const ScheduleCache &cache() const { return cache_; }
    ThreadPool &pool() { return pool_; }

    /**
     * Enqueue @p job for execution; returns its index (also its
     * position in BatchReport::reports when retired via drain()).
     * Execution starts immediately on a free worker.
     */
    std::size_t submit(BatchJob job) EXCLUDES(mutex_);

    /**
     * Streaming retirement: block until job @p index has finished,
     * return its report, and release the job's slot — its matrix
     * reference and the report buffer are dropped immediately, so a
     * long-running caller (the serving daemon) stays at O(in-flight)
     * memory instead of accumulating every job until drain().
     * @p index must name a job submitted since the last drain() and
     * not yet collected; anything else is fatal(). Safe from any
     * thread outside the worker pool.
     */
    SpmvReport collect(std::size_t index) EXCLUDES(mutex_);

    /**
     * Block until every submitted job has finished and return the
     * aggregated report: one entry per *uncollected* job, in
     * submission order (collect()ed jobs were already retired). Jobs
     * submitted after drain() begin a new batch (indices restart
     * at 0).
     */
    BatchReport drain() EXCLUDES(mutex_);

    /** Jobs submitted but not yet retired by collect()/drain(). */
    std::size_t pendingJobs() const EXCLUDES(mutex_);

    /**
     * Run body(0) .. body(n-1) on the worker pool and block until all
     * finish — for tools whose per-item work does not fit BatchJob
     * (comparisons, DSE points). Bodies may use the cache-backed
     * helpers below.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &body);

    /** Cache-backed Engine::schedule (thread-safe, verified). */
    std::shared_ptr<const sched::Schedule>
    schedule(const Engine &engine, const sparse::CsrMatrix &a);

    /**
     * Cache-backed scheduling with an explicit scheduler (thread-safe,
     * verified). @p capacityRowsPerLane feeds the verifier's ScUG
     * capacity rule when verification is on; pass
     * ArchConfig::capacityRowsPerLane() or 0 to skip that rule.
     */
    std::shared_ptr<const sched::Schedule>
    schedule(const sched::Scheduler &scheduler, const sparse::CsrMatrix &a,
             std::uint32_t capacityRowsPerLane = 0);

    /**
     * Cache-backed Engine::run (thread-safe). From an entry's second
     * use on, the run replays the entry's StreamPlan; the report is
     * bit-identical to a walk. Jobs and compare() run through here too.
     */
    SpmvReport run(const Engine &engine, const sparse::CsrMatrix &a,
                   const std::vector<float> &x,
                   const std::string &dataset = "",
                   std::vector<float> *y_out = nullptr,
                   const arch::SpmvParams &params = {});

    /** Cache-backed core::compare (thread-safe). */
    Comparison compare(const sparse::CsrMatrix &a,
                       const std::vector<float> &x,
                       const std::string &dataset = "",
                       const arch::ArchConfig &config = {});

  private:
    void runJob(std::size_t index) EXCLUDES(mutex_);

    /**
     * Cache-backed entry: schedule, statistics, plan. With
     * BatchOptions::verifySchedules on, the schedule is statically
     * verified against @p a on the entry's first use
     * (CachedSchedule::verifyOnce); an error-severity diagnostic is
     * fatal().
     */
    std::shared_ptr<const CachedSchedule>
    lookup(const sched::Scheduler &scheduler, const sparse::CsrMatrix &a,
           std::uint32_t capacityRowsPerLane);

    bool verifySchedules_;
    trace::TraceSink *traceSink_;
    ScheduleCache cache_;
    /** One in-flight job: input, result and completion flag. */
    struct Slot
    {
        BatchJob job;
        SpmvReport report;
        bool done = false;
    };

    /** Guards the job slots. Never held across a job body or a pool
     *  call — queue-depth sampling, scheduling and simulation all run
     *  lock-free with respect to this engine. */
    mutable common::Mutex mutex_;
    /** Signaled by runJob() on completion; collect() waits here. */
    common::CondVar done_;
    /** Index assigned to the next submit; reset to 0 by drain(). */
    std::size_t nextIndex_ GUARDED_BY(mutex_) = 0;
    // Node-based map: slot references stay valid across submits and
    // erases of other slots while a worker still reads its job.
    std::unordered_map<std::size_t, Slot> slots_ GUARDED_BY(mutex_);
    ThreadPool pool_; ///< last member: joins before state tears down
};

} // namespace core
} // namespace chason

#endif // CHASON_CORE_BATCH_ENGINE_H_
