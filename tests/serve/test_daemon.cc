/**
 * @file
 * In-process end-to-end tests for the serving daemon: a real Daemon on
 * a temp Unix socket, driven through real client connections.
 *
 * The central contract is the ISSUE's acceptance bar: a served result
 * is bit-identical to running the same deterministic spec directly
 * through Engine::runScheduled — checked via the y-vector digest.
 * Around it: typed errors in request order, per-tenant QoS isolation,
 * a well-formed stats document (including the empty-daemon case, which
 * must not trip the percentile-on-empty assertion), and graceful,
 * idempotent shutdown.
 */

#include "serve/daemon.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "common/rng.h"
#include "core/engine.h"
#include "serve/json.h"
#include "serve/net.h"
#include "serve/protocol.h"
#include "sparse/generators.h"

namespace chason {
namespace serve {
namespace {

std::string
socketPath(const char *name)
{
    return ::testing::TempDir() + "chason_" + name + ".sock";
}

/** The daemon's pipeline recomputed directly: digest of y. */
std::string
referenceDigest(std::uint32_t scale, std::size_t edges,
                std::uint64_t seed, std::uint64_t xseed)
{
    Rng matrixRng(seed);
    const sparse::CsrMatrix a = sparse::rmat(scale, edges, matrixRng);
    Rng xRng(xseed);
    const std::vector<float> x = sparse::randomVector(a.cols(), xRng);
    const core::Engine engine(core::Engine::Kind::Chason, {});
    const sched::Schedule schedule = engine.schedule(a);
    std::vector<float> y;
    engine.runScheduled(schedule, a, x, "ref", &y);
    char hex[24];
    std::snprintf(hex, sizeof(hex), "%016" PRIx64, vectorDigest(y));
    return hex;
}

std::string
rmatRequest(std::uint64_t id, const char *tenant, std::uint32_t scale,
            std::size_t edges, std::uint64_t seed, std::uint64_t xseed)
{
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer),
                  "{\"id\":%" PRIu64
                  ",\"tenant\":\"%s\",\"rmat\":{\"scale\":%u,"
                  "\"edges\":%zu,\"seed\":%" PRIu64 "},\"xseed\":%" PRIu64
                  "}\n",
                  id, tenant, scale, edges, seed, xseed);
    return buffer;
}

/** Read one response line and parse it; fails the test on EOF. */
JsonValue
readResponse(LineReader &reader)
{
    std::string line;
    EXPECT_TRUE(reader.readLine(line));
    JsonValue v;
    std::string error;
    EXPECT_TRUE(parseJson(line, v, error)) << line << ": " << error;
    return v;
}

TEST(ServeDaemon, ServedResultsAreBitIdenticalToDirectEngineRuns)
{
    DaemonOptions options;
    options.socketPath = socketPath("serve");
    Daemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    const int fd = connectUnixSocket(options.socketPath, &error);
    ASSERT_GE(fd, 0) << error;
    LineReader reader(fd);

    // Two distinct specs plus a repeat of the first (a schedule-cache
    // hit): every answer must match the direct Engine::runScheduled
    // digest for its spec.
    ASSERT_TRUE(sendAll(fd, rmatRequest(1, "t", 7, 1500, 11, 101)));
    ASSERT_TRUE(sendAll(fd, rmatRequest(2, "t", 8, 3000, 13, 103)));
    ASSERT_TRUE(sendAll(fd, rmatRequest(3, "t", 7, 1500, 11, 101)));
    const std::string digestA = referenceDigest(7, 1500, 11, 101);
    const std::string digestB = referenceDigest(8, 3000, 13, 103);
    const std::string expected[] = {digestA, digestB, digestA};
    for (std::uint64_t i = 0; i < 3; ++i) {
        const JsonValue v = readResponse(reader);
        std::uint64_t id = 0;
        EXPECT_TRUE(v.getUint("id", id));
        EXPECT_EQ(id, i + 1); // request order per connection
        ASSERT_NE(v.find("ok"), nullptr);
        EXPECT_TRUE(v.find("ok")->boolean);
        std::string digest;
        EXPECT_TRUE(v.getString("ydigest", digest));
        EXPECT_EQ(digest, expected[i]);
        const JsonValue *serviceMs = v.find("service_ms");
        ASSERT_NE(serviceMs, nullptr);
        EXPECT_GE(serviceMs->number, 0.0);
    }

    // Streaming retirement: answered jobs are gone from the engine.
    EXPECT_EQ(daemon.engine().pendingJobs(), 0u);
    ::close(fd);
    daemon.shutdown();
}

TEST(ServeDaemon, JobsRunOnTheCachedMatrix)
{
    DaemonOptions options;
    options.socketPath = socketPath("shared");
    options.workers = 1;
    Daemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    const int fd = connectUnixSocket(options.socketPath, &error);
    ASSERT_GE(fd, 0) << error;
    LineReader reader(fd);

    // The first request materializes the matrix into the daemon's cache.
    const std::string first = rmatRequest(1, "t", 7, 1500, 11, 101);
    ASSERT_TRUE(sendAll(fd, first));
    EXPECT_TRUE(readResponse(reader).find("ok")->boolean);
    Request request;
    ASSERT_TRUE(parseRequest(first, request, error)) << error;
    const std::weak_ptr<const sparse::CsrMatrix> cached =
        daemon.cachedMatrix(request.matrixKey());
    ASSERT_FALSE(cached.expired());
    EXPECT_EQ(cached.use_count(), 1); // the cache's own reference

    // Occupy the only worker, so the next job stays queued in its slot.
    std::promise<void> started;
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    daemon.engine().pool().post([&started, gate] {
        started.set_value();
        gate.wait();
    });
    started.get_future().wait();

    ASSERT_TRUE(sendAll(fd, rmatRequest(2, "t", 7, 1500, 11, 102)));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (daemon.engine().pendingJobs() == 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(daemon.engine().pendingJobs(), 1u);
    // The queued job holds the cached object itself, not a copy.
    EXPECT_EQ(cached.use_count(), 2);

    release.set_value();
    const JsonValue v = readResponse(reader);
    std::string digest;
    EXPECT_TRUE(v.getString("ydigest", digest));
    EXPECT_EQ(digest, referenceDigest(7, 1500, 11, 102));
    // Retired: the job's reference is gone, the cache's remains.
    EXPECT_EQ(cached.use_count(), 1);
    ::close(fd);
    daemon.shutdown();
}

TEST(ServeDaemon, TypedErrorsComeBackInRequestOrder)
{
    DaemonOptions options;
    options.socketPath = socketPath("errors");
    Daemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    const int fd = connectUnixSocket(options.socketPath, &error);
    ASSERT_GE(fd, 0) << error;
    LineReader reader(fd);

    ASSERT_TRUE(sendAll(fd, "this is not json\n"));
    ASSERT_TRUE(sendAll(fd, "{\"id\":5,\"dataset\":\"NOPE\"}\n"));
    ASSERT_TRUE(sendAll(
        fd, "{\"id\":6,\"dataset\":\"CM\",\"config\":{\"channels\":1}}"
            "\n"));
    ASSERT_TRUE(sendAll(fd, rmatRequest(7, "t", 7, 1500, 11, 101)));

    // Malformed line: id could not parse, correlated as null.
    JsonValue v = readResponse(reader);
    ASSERT_NE(v.find("id"), nullptr);
    EXPECT_TRUE(v.find("id")->isNull());
    std::string type;
    EXPECT_TRUE(v.getString("error", type));
    EXPECT_EQ(type, kErrBadRequest);

    // Unknown dataset: typed error, id echoed.
    v = readResponse(reader);
    std::uint64_t id = 0;
    EXPECT_TRUE(v.getUint("id", id));
    EXPECT_EQ(id, 5u);
    EXPECT_TRUE(v.getString("error", type));
    EXPECT_EQ(type, kErrBadRequest);
    std::string detail;
    EXPECT_TRUE(v.getString("detail", detail));
    EXPECT_NE(detail.find("NOPE"), std::string::npos);

    // Geometry that would be fatal in SchedConfig::validate(): the
    // daemon answers instead of dying.
    v = readResponse(reader);
    EXPECT_TRUE(v.getUint("id", id));
    EXPECT_EQ(id, 6u);
    EXPECT_TRUE(v.getString("error", type));
    EXPECT_EQ(type, kErrBadRequest);

    // And the connection is still fully usable afterwards.
    v = readResponse(reader);
    EXPECT_TRUE(v.getUint("id", id));
    EXPECT_EQ(id, 7u);
    ASSERT_NE(v.find("ok"), nullptr);
    EXPECT_TRUE(v.find("ok")->boolean);

    ::close(fd);
    daemon.shutdown();
}

TEST(ServeDaemon, MalformedMatrixFileIsABadRequest)
{
    // Each file's error goes back to the client and the daemon keeps
    // serving: a truncated .mtx (two entries declared, one present),
    // and a well-formed one whose header declares 2^32 - 1 rows, for
    // which building the CSR would allocate 32 GiB of row offsets.
    struct BadFile
    {
        const char *name;
        const char *contents;
        const char *reason;
    };
    const BadFile files[] = {
        {"truncated",
         "%%MatrixMarket matrix coordinate real general\n"
         "4 4 2\n"
         "1 1 1.0\n",
         "truncated at entry 1"},
        {"oversized",
         "%%MatrixMarket matrix coordinate real general\n"
         "4294967295 4294967295 0\n",
         "the bound is 2^24 rows and columns"},
    };

    DaemonOptions options;
    options.socketPath = socketPath("bad_mtx");
    Daemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;
    const int fd = connectUnixSocket(options.socketPath, &error);
    ASSERT_GE(fd, 0) << error;
    LineReader reader(fd);

    std::uint64_t id = 0;
    for (const BadFile &file : files) {
        SCOPED_TRACE(file.name);
        const std::string mtx = ::testing::TempDir() + "chason_" +
            file.name + ".mtx";
        std::FILE *f = std::fopen(mtx.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs(file.contents, f);
        std::fclose(f);

        ASSERT_TRUE(sendAll(fd, "{\"id\":" + std::to_string(++id) +
                                    ",\"path\":\"" + mtx + "\"}\n"));
        const JsonValue v = readResponse(reader);
        std::uint64_t got = 0;
        EXPECT_TRUE(v.getUint("id", got));
        EXPECT_EQ(got, id);
        std::string type;
        EXPECT_TRUE(v.getString("error", type));
        EXPECT_EQ(type, kErrBadRequest);
        std::string detail;
        EXPECT_TRUE(v.getString("detail", detail));
        EXPECT_NE(detail.find(file.reason), std::string::npos) << detail;
        std::remove(mtx.c_str());
    }

    ASSERT_TRUE(sendAll(fd, rmatRequest(++id, "t", 7, 1500, 11, 101)));
    const JsonValue v = readResponse(reader);
    std::uint64_t got = 0;
    EXPECT_TRUE(v.getUint("id", got));
    EXPECT_EQ(got, id);
    ASSERT_NE(v.find("ok"), nullptr);
    EXPECT_TRUE(v.find("ok")->boolean);
    std::string digest;
    EXPECT_TRUE(v.getString("ydigest", digest));
    EXPECT_EQ(digest, referenceDigest(7, 1500, 11, 101));

    ::close(fd);
    daemon.shutdown();
}

TEST(ServeDaemon, LongPathResponseIsOneParsableLine)
{
    // The dataset label echoes the request's path, so a long path makes
    // a long response line; it must come back whole and parsable.
    std::string mtx = ::testing::TempDir();
    while (mtx.size() < 320)
        mtx += "./";
    mtx += "chason_long_path.mtx";
    std::FILE *f = std::fopen(mtx.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("%%MatrixMarket matrix coordinate real general\n"
               "3 3 4\n1 1 1.0\n2 2 2.0\n3 1 -1.5\n3 3 0.5\n",
               f);
    std::fclose(f);

    DaemonOptions options;
    options.socketPath = socketPath("long_path");
    Daemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;
    const int fd = connectUnixSocket(options.socketPath, &error);
    ASSERT_GE(fd, 0) << error;
    LineReader reader(fd);

    ASSERT_TRUE(sendAll(fd, "{\"id\":1,\"path\":\"" + mtx + "\"}\n"));
    const JsonValue v = readResponse(reader);
    ASSERT_NE(v.find("ok"), nullptr);
    EXPECT_TRUE(v.find("ok")->boolean);
    std::string dataset;
    EXPECT_TRUE(v.getString("dataset", dataset));
    EXPECT_EQ(dataset, "path:" + mtx);
    std::uint64_t nnz = 0;
    EXPECT_TRUE(v.getUint("nnz", nnz));
    EXPECT_EQ(nnz, 4u);

    ::close(fd);
    daemon.shutdown();
    std::remove(mtx.c_str());
}

TEST(ServeDaemon, QosThrottlesOneTenantWithoutTouchingAnother)
{
    DaemonOptions options;
    options.socketPath = socketPath("qos");
    options.tokensPerSec = 0.001; // effectively no refill in-test
    options.tokenBurst = 2.0;
    Daemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    const int fd = connectUnixSocket(options.socketPath, &error);
    ASSERT_GE(fd, 0) << error;
    LineReader reader(fd);

    for (std::uint64_t i = 1; i <= 5; ++i)
        ASSERT_TRUE(
            sendAll(fd, rmatRequest(i, "greedy", 7, 1500, 11, 101)));
    // A different tenant interleaved with the greedy one: its own
    // burst is untouched.
    ASSERT_TRUE(sendAll(fd, rmatRequest(6, "polite", 7, 1500, 11, 101)));

    int ok = 0;
    int overBudget = 0;
    bool politeServed = false;
    for (int i = 0; i < 6; ++i) {
        const JsonValue v = readResponse(reader);
        std::uint64_t id = 0;
        ASSERT_TRUE(v.getUint("id", id));
        ASSERT_NE(v.find("ok"), nullptr);
        if (v.find("ok")->boolean) {
            ++ok;
            politeServed = politeServed || id == 6;
        } else {
            ++overBudget;
            std::string type;
            EXPECT_TRUE(v.getString("error", type));
            EXPECT_EQ(type, kErrOverBudget);
            EXPECT_LE(id, 5u); // only the greedy tenant is rejected
        }
    }
    EXPECT_EQ(ok, 3);         // greedy burst of 2 + polite 1
    EXPECT_EQ(overBudget, 3); // greedy requests 3..5
    EXPECT_TRUE(politeServed);

    ::close(fd);
    daemon.shutdown();
}

TEST(ServeDaemon, StatsJsonIsWellFormedEvenWhenIdle)
{
    DaemonOptions options;
    options.socketPath = socketPath("stats");
    options.queueCapacity = 17;
    Daemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    // Idle daemon: zero samples must not trip the percentile-on-empty
    // assertion — the probe reports zeros.
    JsonValue v;
    ASSERT_TRUE(parseJson(daemon.statsJson(), v, error)) << error;
    const JsonValue *latency = v.find("latency_ms");
    ASSERT_NE(latency, nullptr);
    std::uint64_t count = 99;
    EXPECT_TRUE(latency->getUint("count", count));
    EXPECT_EQ(count, 0u);
    EXPECT_DOUBLE_EQ(latency->find("p99")->number, 0.0);

    const int fd = connectUnixSocket(options.socketPath, &error);
    ASSERT_GE(fd, 0) << error;
    LineReader reader(fd);
    ASSERT_TRUE(sendAll(fd, rmatRequest(1, "alpha", 7, 1500, 11, 101)));
    ASSERT_TRUE(sendAll(fd, rmatRequest(2, "alpha", 7, 1500, 11, 101)));
    ASSERT_TRUE(sendAll(fd, "bad\n"));
    for (int i = 0; i < 3; ++i)
        readResponse(reader);

    ASSERT_TRUE(parseJson(daemon.statsJson(), v, error)) << error;
    const JsonValue *requests = v.find("requests");
    ASSERT_NE(requests, nullptr);
    std::uint64_t received = 0, served = 0, bad = 0;
    EXPECT_TRUE(requests->getUint("received", received));
    EXPECT_TRUE(requests->getUint("served", served));
    EXPECT_TRUE(requests->getUint("bad_request", bad));
    EXPECT_EQ(received, 3u);
    EXPECT_EQ(served, 2u);
    EXPECT_EQ(bad, 1u);

    latency = v.find("latency_ms");
    ASSERT_NE(latency, nullptr);
    EXPECT_TRUE(latency->getUint("count", count));
    EXPECT_EQ(count, 2u);
    EXPECT_GE(latency->find("p50")->number, 0.0);
    EXPECT_GE(latency->find("p99")->number,
              latency->find("p50")->number);

    const JsonValue *queue = v.find("queue");
    ASSERT_NE(queue, nullptr);
    std::uint64_t capacity = 0;
    EXPECT_TRUE(queue->getUint("capacity", capacity));
    EXPECT_EQ(capacity, 17u);

    // Both cache tiers are visible: the repeat request hit in memory.
    const JsonValue *cache = v.find("cache");
    ASSERT_NE(cache, nullptr);
    std::uint64_t hits = 0, misses = 0;
    EXPECT_TRUE(cache->getUint("hits", hits));
    EXPECT_TRUE(cache->getUint("misses", misses));
    EXPECT_EQ(hits, 1u);
    EXPECT_EQ(misses, 1u);
    ASSERT_NE(cache->find("disk_hits"), nullptr);
    ASSERT_NE(cache->find("disk_hit_rate"), nullptr);

    const JsonValue *tenants = v.find("tenants");
    ASSERT_NE(tenants, nullptr);
    const JsonValue *alpha = tenants->find("alpha");
    ASSERT_NE(alpha, nullptr);
    std::uint64_t alphaServed = 0;
    EXPECT_TRUE(alpha->getUint("served", alphaServed));
    EXPECT_EQ(alphaServed, 2u);

    ::close(fd);
    daemon.shutdown();
}

TEST(ServeDaemon, ShutdownIsGracefulAndIdempotent)
{
    DaemonOptions options;
    options.socketPath = socketPath("shutdown");
    auto daemon = std::make_unique<Daemon>(options);
    std::string error;
    ASSERT_TRUE(daemon->start(&error)) << error;

    const int fd = connectUnixSocket(options.socketPath, &error);
    ASSERT_GE(fd, 0) << error;
    ASSERT_TRUE(sendAll(fd, rmatRequest(1, "t", 7, 1500, 11, 101)));
    LineReader reader(fd);
    const JsonValue v = readResponse(reader);
    ASSERT_NE(v.find("ok"), nullptr);
    EXPECT_TRUE(v.find("ok")->boolean);
    daemon->shutdown();
    ::close(fd);

    daemon->shutdown(); // idempotent
    // The socket file is gone; a new connect must fail.
    EXPECT_LT(connectUnixSocket(options.socketPath, &error), 0);
    daemon.reset(); // destructor after explicit shutdown: no-op
}

} // namespace
} // namespace serve
} // namespace chason
