/**
 * @file
 * Serving-daemon implementation.
 */

#include "serve/daemon.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <optional>
#include <utility>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/json.h"
#include "common/rng.h"
#include "serve/net.h"
#include "sparse/dataset.h"
#include "sparse/generators.h"
#include "sparse/matrix_market.h"

namespace chason {
namespace serve {

namespace {

/**
 * Materialized matrices kept resident. The working set of a serving
 * deployment is a small catalog of named matrices, so a coarse bound
 * with arbitrary eviction is enough — evicted entries just pay one
 * regeneration on the next request.
 */
constexpr std::size_t kMaxCachedMatrices = 32;

} // namespace

/** One accepted client connection and its reader/writer pair. */
struct Daemon::Connection
{
    int fd = -1;
    std::thread reader;
    std::thread writer;

    common::Mutex mutex;
    /** Signaled whenever the queue grows or the reader exits. */
    common::CondVar ready;
    std::deque<PendingResponse> queue GUARDED_BY(mutex);
    bool readerDone GUARDED_BY(mutex) = false;

    /** Set by the writer as its very last step; enables reaping. */
    std::atomic<bool> finished{false};
};

Daemon::Daemon(DaemonOptions options)
    : options_(std::move(options)),
      engine_([&] {
          core::BatchOptions batch;
          batch.workers = options_.workers;
          batch.cacheBudgetBytes = options_.cacheBudgetBytes;
          batch.artifactDir = options_.artifactDir;
          batch.verifySchedules = options_.verifySchedules;
          return batch;
      }()),
      admission_([&] {
          AdmissionControl::Options control;
          control.queueCapacity = options_.queueCapacity;
          control.tokensPerSec = options_.tokensPerSec;
          control.tokenBurst = options_.tokenBurst;
          return control;
      }()),
      epoch_(std::chrono::steady_clock::now())
{
}

Daemon::~Daemon()
{
    shutdown();
}

double
Daemon::now() const
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
}

bool
Daemon::start(std::string *error)
{
    sockaddr_un address{};
    if (options_.socketPath.empty() ||
        options_.socketPath.size() >= sizeof(address.sun_path)) {
        if (error != nullptr)
            *error = "invalid socket path '" + options_.socketPath + "'";
        return false;
    }
    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0) {
        if (error != nullptr)
            *error = std::string("socket(): ") + std::strerror(errno);
        return false;
    }
    address.sun_family = AF_UNIX;
    std::memcpy(address.sun_path, options_.socketPath.c_str(),
                options_.socketPath.size() + 1);
    // A previous daemon that died hard leaves its socket file behind;
    // this daemon owns the path, so replace it.
    ::unlink(options_.socketPath.c_str());
    if (::bind(listenFd_, reinterpret_cast<const sockaddr *>(&address),
               sizeof(address)) != 0 ||
        ::listen(listenFd_, 64) != 0) {
        if (error != nullptr)
            *error = "bind/listen(" + options_.socketPath +
                "): " + std::strerror(errno);
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }
    acceptThread_ = std::thread([this] { acceptLoop(); });
    return true;
}

void
Daemon::acceptLoop()
{
    while (!stopping_.load(std::memory_order_acquire)) {
        pollfd poller{};
        poller.fd = listenFd_;
        poller.events = POLLIN;
        const int ready = ::poll(&poller, 1, 200);
        reapFinished();
        if (ready <= 0)
            continue;
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        auto connection = std::make_unique<Connection>();
        connection->fd = fd;
        Connection *raw = connection.get();
        {
            common::MutexLock lock(connectionsMutex_);
            connections_.push_back(std::move(connection));
        }
        raw->reader = std::thread([this, raw] { readerLoop(raw); });
        raw->writer = std::thread([this, raw] { writerLoop(raw); });
    }
}

void
Daemon::reapFinished()
{
    common::MutexLock lock(connectionsMutex_);
    for (auto it = connections_.begin(); it != connections_.end();) {
        Connection &connection = **it;
        if (!connection.finished.load(std::memory_order_acquire)) {
            ++it;
            continue;
        }
        connection.reader.join();
        connection.writer.join();
        ::close(connection.fd);
        it = connections_.erase(it);
    }
}

void
Daemon::readerLoop(Connection *conn)
{
    LineReader reader(conn->fd);
    std::string line;
    while (reader.readLine(line)) {
        if (line.empty())
            continue;
        handleLine(*conn, line);
    }
    common::MutexLock lock(conn->mutex);
    conn->readerDone = true;
    conn->ready.notify_all();
}

void
Daemon::writerLoop(Connection *conn)
{
    for (;;) {
        PendingResponse item;
        {
            common::MutexLock lock(conn->mutex);
            while (conn->queue.empty() && !conn->readerDone)
                conn->ready.wait(conn->mutex);
            if (conn->queue.empty())
                break;
            item = std::move(conn->queue.front());
            conn->queue.pop_front();
        }
        if (!item.isJob) {
            // A dead peer is not an error worth acting on: keep
            // draining so admitted jobs still retire below.
            sendAll(conn->fd, item.line + "\n");
            continue;
        }
        // collect() blocks until the job is done and frees its slot —
        // this is what keeps the engine at O(in-flight) memory.
        const core::SpmvReport report = engine_.collect(item.jobIndex);
        const double serviceMs = (now() - item.admitSeconds) * 1000.0;
        const std::uint64_t digest = vectorDigest(*item.yOut);
        admission_.release();
        {
            common::MutexLock lock(statsMutex_);
            latency_.add(serviceMs);
            ++served_;
            ++tenants_[item.request.tenant].served;
        }
        sendAll(conn->fd,
                resultResponse(item.request, report, digest, serviceMs) +
                    "\n");
    }
    conn->finished.store(true, std::memory_order_release);
}

void
Daemon::push(Connection &conn, PendingResponse pending)
{
    common::MutexLock lock(conn.mutex);
    conn.queue.push_back(std::move(pending));
    conn.ready.notify_all();
}

void
Daemon::handleLine(Connection &conn, const std::string &line)
{
    {
        common::MutexLock lock(statsMutex_);
        ++received_;
    }

    Request request;
    std::string error;
    // One typed error line, counted under @p counter and, once the
    // request has parsed, against its tenant.
    const auto reject = [&](std::uint64_t Daemon::*counter, bool parsed,
                            const char *type, const std::string &detail) {
        {
            common::MutexLock lock(statsMutex_);
            ++(this->*counter);
            if (parsed)
                ++tenants_[request.tenant].rejected;
        }
        PendingResponse pending;
        pending.line =
            errorResponse(request.hasId, request.id, type, detail);
        push(conn, std::move(pending));
    };
    if (!parseRequest(line, request, error)) {
        reject(&Daemon::badRequests_, false, kErrBadRequest, error);
        return;
    }

    if (stopping_.load(std::memory_order_acquire)) {
        reject(&Daemon::rejectedShutdown_, true, kErrShuttingDown,
               "daemon is shutting down");
        return;
    }

    const double admitSeconds = now();
    const Admission verdict =
        admission_.tryAdmit(request.tenant, admitSeconds);
    if (verdict != Admission::kAdmitted) {
        const bool overBudget = verdict == Admission::kOverBudget;
        reject(overBudget ? &Daemon::rejectedOverBudget_
                          : &Daemon::rejectedQueueFull_,
               true, overBudget ? kErrOverBudget : kErrQueueFull,
               overBudget ? "tenant token budget exhausted"
                          : "admission queue is full");
        return;
    }

    const std::shared_ptr<const sparse::CsrMatrix> matrix =
        materialize(request, error);
    if (matrix == nullptr) {
        admission_.release();
        reject(&Daemon::badRequests_, true, kErrBadRequest, error);
        return;
    }

    core::BatchJob job;
    job.dataset = request.matrixKey();
    job.matrix = matrix;
    job.kind = request.kind;
    request.applyConfig(job.config);
    job.xSeed = request.xSeed;
    job.yOut = std::make_shared<std::vector<float>>();

    PendingResponse pending;
    pending.isJob = true;
    pending.request = request;
    pending.yOut = job.yOut;
    pending.admitSeconds = admitSeconds;
    pending.jobIndex = engine_.submit(std::move(job));
    push(conn, std::move(pending));
}

std::shared_ptr<const sparse::CsrMatrix>
Daemon::cachedMatrix(const std::string &key) const
{
    common::MutexLock lock(matrixMutex_);
    const auto it = matrices_.find(key);
    return it == matrices_.end() ? nullptr : it->second;
}

std::shared_ptr<const sparse::CsrMatrix>
Daemon::materialize(const Request &request, std::string &error)
{
    const std::string key = request.matrixKey();
    if (auto resident = cachedMatrix(key))
        return resident;

    // Build outside the lock: generation is the expensive part and
    // must not serialize unrelated connections. Two readers racing the
    // same key build twice; both results are identical (every source
    // is deterministic) and the first insert wins.
    std::shared_ptr<const sparse::CsrMatrix> matrix;
    switch (request.source) {
    case Request::Source::Dataset: {
        const sparse::DatasetEntry *entry = nullptr;
        for (const auto &candidate : sparse::table2()) {
            if (candidate.id == request.dataset ||
                candidate.name == request.dataset) {
                entry = &candidate;
                break;
            }
        }
        if (entry == nullptr) {
            error = "unknown dataset '" + request.dataset + "'";
            return nullptr;
        }
        std::optional<sparse::CsrMatrix> a =
            sparse::loadOrGenerate(*entry, "", error);
        if (!a)
            return nullptr;
        matrix = std::make_shared<sparse::CsrMatrix>(std::move(*a));
        break;
    }
    case Request::Source::Path: {
        // A malformed file comes back as a parse error, answered as
        // bad_request; it never reaches fatal().
        if (::access(request.path.c_str(), R_OK) != 0) {
            error = "cannot read matrix file '" + request.path + "'";
            return nullptr;
        }
        std::optional<sparse::CooMatrix> coo =
            sparse::readMatrixMarketFile(request.path, error);
        if (!coo)
            return nullptr;
        // The declared shape is client-named input too: bound it before
        // toCsr() allocates rows + 1 offsets.
        constexpr std::uint64_t kMaxDim = std::uint64_t{1}
            << kMaxMatrixScale;
        if (coo->rows() > kMaxDim || coo->cols() > kMaxDim ||
            coo->nnz() > kMaxMatrixNnz) {
            error = "matrix file '" + request.path + "' is " +
                std::to_string(coo->rows()) + "x" +
                std::to_string(coo->cols()) + " with " +
                std::to_string(coo->nnz()) +
                " nonzeros; the bound is 2^" +
                std::to_string(kMaxMatrixScale) + " rows and columns, " +
                std::to_string(kMaxMatrixNnz) + " nonzeros";
            return nullptr;
        }
        matrix = std::make_shared<sparse::CsrMatrix>(coo->toCsr());
        break;
    }
    case Request::Source::Rmat: {
        Rng rng(request.rmatSeed);
        matrix = std::make_shared<sparse::CsrMatrix>(sparse::rmat(
            request.rmatScale,
            static_cast<std::size_t>(request.rmatEdges), rng));
        break;
    }
    }

    common::MutexLock lock(matrixMutex_);
    const auto inserted = matrices_.emplace(key, matrix);
    if (!inserted.second)
        return inserted.first->second;
    if (matrices_.size() > kMaxCachedMatrices) {
        auto victim = matrices_.begin();
        if (victim->first == key)
            ++victim;
        matrices_.erase(victim);
    }
    return matrix;
}

std::string
Daemon::statsJson() const
{
    // Sibling locks are sampled before statsMutex_ — every mutex here
    // is a leaf, so there is no ordering to get wrong.
    const core::ScheduleCacheStats cache = engine_.cache().stats();
    const std::size_t queueDepth = admission_.depth();
    const std::size_t queueMaxDepth = admission_.maxDepth();
    const double uptime = now();

    const std::uint64_t diskProbes = cache.diskHits + cache.diskMisses;
    const double diskHitRate = diskProbes > 0
        ? static_cast<double>(cache.diskHits) /
            static_cast<double>(diskProbes)
        : 0.0;
    constexpr const char *kStat = "%.6g";

    common::MutexLock lock(statsMutex_);
    // An idle daemon reports zeros: percentile() on an empty set is a
    // programmer error by contract, and a stats probe must never be.
    const bool haveLatency = !latency_.empty();
    std::string json;
    common::JsonWriter w(json);
    w.beginObject()
        .key("uptime_s").number(uptime, "%.3f")
        .key("workers").integer(engine_.workers())
        .key("requests").beginObject()
        .key("received").integer(received_)
        .key("served").integer(served_)
        .key("bad_request").integer(badRequests_)
        .key("over_budget").integer(rejectedOverBudget_)
        .key("queue_full").integer(rejectedQueueFull_)
        .key("shutting_down").integer(rejectedShutdown_)
        .endObject()
        .key("latency_ms").beginObject()
        .key("count").integer(latency_.count())
        .key("mean").number(haveLatency ? latency_.mean() : 0.0, kStat)
        .key("min").number(haveLatency ? latency_.min() : 0.0, kStat)
        .key("max").number(haveLatency ? latency_.max() : 0.0, kStat)
        .key("p50").number(haveLatency ? latency_.percentile(50.0) : 0.0, kStat)
        .key("p95").number(haveLatency ? latency_.percentile(95.0) : 0.0, kStat)
        .key("p99").number(haveLatency ? latency_.percentile(99.0) : 0.0, kStat)
        .endObject()
        .key("queue").beginObject()
        .key("depth").integer(queueDepth)
        .key("max_depth").integer(queueMaxDepth)
        .key("capacity").integer(options_.queueCapacity)
        .endObject()
        .key("cache").beginObject()
        .key("hits").integer(cache.hits)
        .key("misses").integer(cache.misses)
        .key("hit_rate").number(cache.hitRate(), kStat)
        .key("disk_hits").integer(cache.diskHits)
        .key("disk_misses").integer(cache.diskMisses)
        .key("disk_hit_rate").number(diskHitRate, kStat)
        .key("persisted").integer(cache.persisted)
        .key("corrupt").integer(cache.corrupt)
        .key("evictions").integer(cache.evictions)
        .key("entries").integer(cache.entries)
        .key("bytes").integer(cache.bytes)
        .key("budget_bytes").integer(cache.budgetBytes)
        .endObject()
        .key("tenants").beginObject();
    for (const auto &entry : tenants_) {
        w.key(entry.first).beginObject()
            .key("served").integer(entry.second.served)
            .key("rejected").integer(entry.second.rejected)
            .endObject();
    }
    w.endObject().endObject();
    return json;
}

void
Daemon::shutdown()
{
    if (shutdownDone_.exchange(true))
        return;
    stopping_.store(true, std::memory_order_release);
    if (acceptThread_.joinable())
        acceptThread_.join();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
        ::unlink(options_.socketPath.c_str());
    }

    // The accept thread is gone, so connections_ is stable from here.
    common::MutexLock lock(connectionsMutex_);
    for (const auto &connection : connections_) {
        // EOF the read side: the reader exits at its next recv(), the
        // writer drains what was admitted and then follows.
        ::shutdown(connection->fd, SHUT_RD);
    }
    for (const auto &connection : connections_) {
        if (connection->reader.joinable())
            connection->reader.join();
        if (connection->writer.joinable())
            connection->writer.join();
        ::close(connection->fd);
    }
    connections_.clear();
}

} // namespace serve
} // namespace chason
