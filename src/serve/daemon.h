/**
 * @file
 * The chason_serve daemon: a long-running Unix-domain-socket server
 * over core::BatchEngine.
 *
 * Thread architecture:
 *  - one accept thread polls the listening socket (200 ms tick, also
 *    the reaping cadence for finished connections) and spawns a
 *    reader/writer thread pair per connection;
 *  - the reader thread splits the byte stream into lines, parses and
 *    admission-checks each request, materializes the matrix and
 *    submits a BatchJob — it never waits for simulation, so a slow
 *    job cannot stall parsing of the next request;
 *  - the writer thread drains the connection's FIFO of pending
 *    responses: immediate typed errors are sent as-is, jobs block in
 *    BatchEngine::collect() which both yields the report and retires
 *    the job's slot (bounded steady-state memory).
 *
 * Responses therefore come back in request order per connection,
 * while jobs from different connections share the engine's worker
 * pool and schedule cache.
 *
 * Rejections (over_budget / queue_full / shutting_down / bad_request)
 * are decided synchronously in the reader with a typed error line —
 * nothing about an overloaded daemon ever blocks the accept loop or
 * an admitted request.
 *
 * Shutdown: stop the accept loop, shut down every connection's read
 * side, then join readers and writers — writers still collect() every
 * already-admitted job, so shutdown is graceful: admitted work is
 * answered, new work is refused with kErrShuttingDown.
 */

#ifndef CHASON_SERVE_DAEMON_H_
#define CHASON_SERVE_DAEMON_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "common/thread_annotations.h"
#include "core/batch_engine.h"
#include "serve/admission.h"
#include "serve/protocol.h"

namespace chason {
namespace serve {

/** Everything configurable about a daemon instance. */
struct DaemonOptions
{
    /** Filesystem path of the Unix-domain listening socket. */
    std::string socketPath;

    /** Worker threads; 0 selects ThreadPool::defaultWorkers(). */
    unsigned workers = 0;

    /** In-flight request bound (admission queue capacity). */
    std::size_t queueCapacity = 64;

    /** Per-tenant sustained tokens/sec; <= 0 disables QoS. */
    double tokensPerSec = 0.0;

    /** Per-tenant burst allowance. */
    double tokenBurst = 32.0;

    /** Schedule-cache byte budget. */
    std::size_t cacheBudgetBytes =
        core::ScheduleCache::kDefaultBudgetBytes;

    /** Two-tier cache artifact directory; empty = memory only. */
    std::string artifactDir;

    /** Statically verify every schedule (fatal on an illegal one). */
    bool verifySchedules = false;
};

/** The serving daemon. start() it, statsJson() it, shutdown() it. */
class Daemon
{
  public:
    explicit Daemon(DaemonOptions options);
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /**
     * Bind the socket and start the accept loop. False (with a
     * reason) if the socket cannot be created; a stale socket file at
     * the path is replaced.
     */
    bool start(std::string *error);

    /**
     * Graceful stop, idempotent: refuse new work, answer every
     * admitted request, join all threads, remove the socket file.
     */
    void shutdown();

    /**
     * One JSON object describing the daemon right now: request
     * counters, latency percentiles (p50/p95/p99), admission-queue
     * depth, both schedule-cache tiers and per-tenant accounting.
     * Safe from any thread — the serve tool calls it from its signal
     * loop (SIGUSR1) and once more at SIGTERM.
     */
    std::string statsJson() const EXCLUDES(statsMutex_);

    const DaemonOptions &options() const { return options_; }
    core::BatchEngine &engine() { return engine_; }

    /**
     * The resident matrix for @p key (Request::matrixKey()), or null:
     * the object every job on that key runs on.
     */
    std::shared_ptr<const sparse::CsrMatrix>
    cachedMatrix(const std::string &key) const EXCLUDES(matrixMutex_);

  private:
    struct Connection;

    /** One queued response: either an error line or a pending job. */
    struct PendingResponse
    {
        bool isJob = false;
        std::size_t jobIndex = 0;  ///< isJob: BatchEngine index
        std::string line;          ///< !isJob: rendered error line
        Request request;           ///< isJob: for the result line
        std::shared_ptr<std::vector<float>> yOut; ///< isJob: y sink
        double admitSeconds = 0.0; ///< isJob: service-time start
    };

    /** Per-tenant served/rejected counters. */
    struct TenantCounters
    {
        std::uint64_t served = 0;
        std::uint64_t rejected = 0;
    };

    void acceptLoop();
    void readerLoop(Connection *conn);
    void writerLoop(Connection *conn);

    /** Parse, admit and submit (or reject) one request line. */
    void handleLine(Connection &conn, const std::string &line);

    /** Queue a response entry for the connection's writer. */
    void push(Connection &conn, PendingResponse pending);

    /** Join and drop connections whose writer has finished. */
    void reapFinished() EXCLUDES(connectionsMutex_);

    /**
     * Resolve the request's matrix through the bounded daemon-local
     * matrix cache (keyed by Request::matrixKey()); null with a
     * reason when the source cannot be resolved.
     */
    std::shared_ptr<const sparse::CsrMatrix>
    materialize(const Request &request, std::string &error)
        EXCLUDES(matrixMutex_);

    /** Monotonic seconds since the daemon was constructed. */
    double now() const;

    const DaemonOptions options_;
    core::BatchEngine engine_;
    AdmissionControl admission_;

    std::atomic<bool> stopping_{false};
    std::atomic<bool> shutdownDone_{false};
    int listenFd_ = -1;
    std::thread acceptThread_;

    /** Owned by the accept thread + shutdown(); reaped as they end. */
    common::Mutex connectionsMutex_;
    std::vector<std::unique_ptr<Connection>>
        connections_ GUARDED_BY(connectionsMutex_);

    /** Bounded materialized-matrix cache shared by all readers. */
    mutable common::Mutex matrixMutex_;
    std::unordered_map<std::string,
                       std::shared_ptr<const sparse::CsrMatrix>>
        matrices_ GUARDED_BY(matrixMutex_);

    /** Leaf lock for every counter statsJson() reports. */
    mutable common::Mutex statsMutex_;
    /** Service ms, in fixed memory: the daemon serves forever. */
    LogHistogram latency_ GUARDED_BY(statsMutex_);
    std::uint64_t received_ GUARDED_BY(statsMutex_) = 0;
    std::uint64_t served_ GUARDED_BY(statsMutex_) = 0;
    std::uint64_t badRequests_ GUARDED_BY(statsMutex_) = 0;
    std::uint64_t rejectedOverBudget_ GUARDED_BY(statsMutex_) = 0;
    std::uint64_t rejectedQueueFull_ GUARDED_BY(statsMutex_) = 0;
    std::uint64_t rejectedShutdown_ GUARDED_BY(statsMutex_) = 0;
    // Ordered map: tenants render in stable order in the stats JSON.
    std::map<std::string, TenantCounters>
        tenants_ GUARDED_BY(statsMutex_);

    /** now()'s epoch, captured at construction. */
    const std::chrono::steady_clock::time_point epoch_;
};

} // namespace serve
} // namespace chason

#endif // CHASON_SERVE_DAEMON_H_
