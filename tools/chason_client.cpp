/**
 * @file
 * chason_client — zipf-weighted load generator and correctness checker
 * for the chason_serve daemon.
 *
 * Replays requests drawn zipf-weighted from a pinned catalog of
 * deterministic R-MAT matrices over N concurrent connections, each
 * pipelining up to --window requests. Because every catalog entry is
 * fully deterministic (matrix seed + x seed), the client recomputes
 * each entry's reference run locally with Engine::runScheduled and
 * checks the daemon's y-vector digest bit for bit.
 *
 * An optional flood phase then hammers the daemon as a separate
 * "flooder" tenant to provoke over_budget rejections, proving QoS
 * isolates tenants; --expect-throttle turns "no rejection seen" into
 * a failure.
 *
 * Exit codes: 0 all checks passed; 1 any digest mismatch, unexpected
 * error response or missing expected throttle; 2 usage; 3 connection
 * failure.
 */

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "common/json.h"
#include "common/rng.h"
#include "core/engine.h"
#include "serve/net.h"
#include "serve/protocol.h"
#include "sparse/generators.h"
#include "tool_flags.h"

namespace {

using namespace chason;

/** One deterministic catalog entry: matrix spec + its x seed. */
struct CatalogEntry
{
    std::uint32_t scale;
    std::uint64_t edges;
    std::uint64_t seed;
    std::uint64_t xseed;
};

/**
 * The pinned request catalog. Small scales keep a 1000-request replay
 * in CI seconds while still exercising distinct schedules; fixed x
 * seeds mean only one local reference run per entry, however often
 * the zipf draw repeats it.
 */
const CatalogEntry kCatalog[] = {
    {7, 1500, 11, 101}, {7, 2500, 12, 102}, {8, 3000, 13, 103},
    {8, 5000, 14, 104}, {9, 6000, 15, 105}, {9, 9000, 16, 106},
    {10, 12000, 17, 107}, {10, 20000, 18, 108},
};
constexpr std::size_t kCatalogSize =
    sizeof(kCatalog) / sizeof(kCatalog[0]);

std::string
requestLine(std::uint64_t id, const CatalogEntry &entry,
            const char *tenant)
{
    std::string line;
    common::JsonWriter(line)
        .beginObject()
        .key("id").integer(id)
        .key("tenant").string(tenant)
        .key("rmat").beginObject()
        .key("scale").integer(entry.scale)
        .key("edges").integer(entry.edges)
        .key("seed").integer(entry.seed)
        .endObject()
        .key("xseed").integer(entry.xseed)
        .endObject();
    return line;
}

/** The daemon's exact pipeline, recomputed locally: digest of y. */
std::uint64_t
referenceDigest(const CatalogEntry &entry)
{
    Rng matrixRng(entry.seed);
    const sparse::CsrMatrix matrix = sparse::rmat(
        entry.scale, static_cast<std::size_t>(entry.edges), matrixRng);
    Rng xRng(entry.xseed);
    const std::vector<float> x =
        sparse::randomVector(matrix.cols(), xRng);
    const core::Engine engine(core::Engine::Kind::Chason, {});
    const sched::Schedule schedule = engine.schedule(matrix);
    std::vector<float> y;
    engine.runScheduled(schedule, matrix, x, "ref", &y);
    return serve::vectorDigest(y);
}

/** Per-connection replay tally, merged after join. */
struct Tally
{
    std::uint64_t sent = 0;
    std::uint64_t ok = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t errors = 0;      ///< ok:false responses
    std::uint64_t malformed = 0;   ///< unparsable response lines
    bool connectFailed = false;
};

/**
 * One response line: parse, match against the expected catalog entry
 * and tally. @p expectedDigest is empty when verification is off.
 */
void
checkResponse(const std::string &line, std::uint64_t expectedId,
              const std::string &expectedDigest, Tally &tally)
{
    common::JsonValue response;
    std::string error;
    std::uint64_t id = 0;
    const common::JsonValue *ok = nullptr;
    if (!common::parseJson(line, response, error) ||
        !response.getUint("id", id) || id != expectedId ||
        (ok = response.find("ok")) == nullptr || !ok->isBool()) {
        ++tally.malformed;
        return;
    }
    if (!ok->boolean) {
        ++tally.errors;
        return;
    }
    ++tally.ok;
    if (expectedDigest.empty())
        return;
    std::string digest;
    if (!response.getString("ydigest", digest) ||
        digest != expectedDigest)
        ++tally.mismatches;
}

/** Replay one connection's share of the zipf workload. */
void
replayConnection(const char *socketPath, const char *tenant,
                 std::uint64_t requests, std::uint64_t window,
                 unsigned paceUs, double zipfS, std::uint64_t seed,
                 unsigned index, const std::vector<std::string> &digests,
                 Tally &tally)
{
    std::string error;
    const int fd = serve::connectUnixSocket(socketPath, &error);
    if (fd < 0) {
        std::fprintf(stderr, "chason_client: %s\n", error.c_str());
        tally.connectFailed = true;
        return;
    }
    serve::LineReader reader(fd);
    Rng rng(seed + index * 7919u);
    // FIFO of (id, catalog index): responses come back in request
    // order per connection, so the head is always the next to match.
    std::vector<std::pair<std::uint64_t, std::size_t>> outstanding;
    std::size_t head = 0;
    std::string line;
    bool dead = false;
    const auto checkNext = [&] {
        const auto &expected = outstanding[head++];
        checkResponse(line, expected.first,
                      digests.empty() ? std::string()
                                      : digests[expected.second],
                      tally);
    };
    for (std::uint64_t i = 0; i < requests && !dead; ++i) {
        // Pacing keeps the replay tenant under the daemon's sustained
        // rate so only the (unpaced) flood phase trips QoS.
        if (paceUs > 0 && i > 0)
            std::this_thread::sleep_for(
                std::chrono::microseconds(paceUs));
        const std::size_t pick = static_cast<std::size_t>(
            rng.nextZipf(kCatalogSize, zipfS));
        const std::uint64_t id =
            static_cast<std::uint64_t>(index) * 1000000u + i;
        if (!serve::sendAll(fd,
                            requestLine(id, kCatalog[pick], tenant) +
                                "\n"))
            break;
        ++tally.sent;
        outstanding.emplace_back(id, pick);
        while (outstanding.size() - head >= window) {
            if (!reader.readLine(line)) {
                dead = true;
                break;
            }
            checkNext();
        }
    }
    while (head < outstanding.size() && reader.readLine(line))
        checkNext();
    tally.malformed += outstanding.size() - head; // lost responses
    ::close(fd);
}

/**
 * Flood phase: back-to-back requests as a separate tenant. Returns
 * the number of over_budget rejections observed (SIZE_MAX on
 * connection failure).
 */
std::uint64_t
floodPhase(const char *socketPath, std::uint64_t count,
           std::uint64_t &answered)
{
    std::string error;
    const int fd = serve::connectUnixSocket(socketPath, &error);
    if (fd < 0) {
        std::fprintf(stderr, "chason_client: flood: %s\n",
                     error.c_str());
        return static_cast<std::uint64_t>(-1);
    }
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t id = 9000000u + i;
        if (!serve::sendAll(
                fd, requestLine(id, kCatalog[0], "flooder") + "\n"))
            break;
    }
    ::shutdown(fd, SHUT_WR); // tell the daemon we are done sending
    serve::LineReader reader(fd);
    std::string line;
    std::uint64_t overBudget = 0;
    answered = 0;
    while (reader.readLine(line)) {
        ++answered;
        common::JsonValue response;
        std::string parseError;
        std::string type;
        if (common::parseJson(line, response, parseError) &&
            response.getString("error", type) && type == "over_budget")
            ++overBudget;
    }
    ::close(fd);
    return overBudget;
}

} // namespace

int
main(int argc, char **argv)
{
    using chason::tools::Flag;

    const char *socketPath = nullptr;
    unsigned requests = 1000;
    unsigned connections = 4;
    unsigned window = 8;
    const char *tenant = "bench";
    unsigned paceUs = 0;
    double zipfS = 1.1;
    unsigned seed = 1;
    unsigned flood = 0;
    bool verify = false;
    bool expectThrottle = false;

    const Flag flags[] = {
        {"--socket", Flag::Kind::kString, &socketPath, "PATH",
         "daemon socket to connect to (required)"},
        {"--requests", Flag::Kind::kUint, &requests, "N",
         "total requests across all connections"},
        {"--connections", Flag::Kind::kUint, &connections, "C",
         "concurrent connections"},
        {"--window", Flag::Kind::kUint, &window, "W",
         "pipelined in-flight requests per connection"},
        {"--tenant", Flag::Kind::kString, &tenant, "NAME",
         "tenant name for the replay phase"},
        {"--pace-us", Flag::Kind::kUint, &paceUs, "US",
         "sleep between sends per connection (stay under QoS rate)"},
        {"--zipf-s", Flag::Kind::kDouble, &zipfS, "S",
         "zipf exponent over the 8-entry catalog"},
        {"--seed", Flag::Kind::kUint, &seed, "S",
         "base seed of the zipf draw"},
        {"--flood", Flag::Kind::kUint, &flood, "N",
         "after the replay, send N back-to-back 'flooder' requests"},
        {"--verify", Flag::Kind::kBool, &verify, "",
         "check every ydigest against a local Engine::runScheduled"},
        {"--expect-throttle", Flag::Kind::kBool, &expectThrottle, "",
         "fail unless the flood phase sees >= 1 over_budget"},
    };
    const std::size_t flagCount = sizeof(flags) / sizeof(flags[0]);

    const chason::tools::FlagParse parse =
        chason::tools::parseFlags(argc, argv, flags, flagCount);
    if (parse.help) {
        chason::tools::printFlagHelp(
            stdout, "chason_client", flags, flagCount,
            "\nexit codes: 0 all checks passed, 1 check failure, "
            "2 usage error, 3 connection failure\n");
        return 0;
    }
    if (!parse.ok() || !parse.positional.empty() ||
        socketPath == nullptr || connections == 0 || window == 0) {
        chason::tools::printFlagHelp(stderr, "chason_client", flags,
                                     flagCount, nullptr);
        return 2;
    }

    std::vector<std::string> digests;
    if (verify) {
        // One local reference run per catalog entry — the same
        // deterministic pipeline the daemon executes.
        digests.reserve(kCatalogSize);
        for (const CatalogEntry &entry : kCatalog) {
            char hex[24];
            std::snprintf(hex, sizeof(hex), "%016" PRIx64,
                          referenceDigest(entry));
            digests.emplace_back(hex);
        }
    }

    std::vector<Tally> tallies(connections);
    std::vector<std::thread> threads;
    threads.reserve(connections);
    const std::uint64_t perConnection = requests / connections;
    const std::uint64_t remainder = requests % connections;
    for (unsigned i = 0; i < connections; ++i) {
        const std::uint64_t share =
            perConnection + (i < remainder ? 1 : 0);
        threads.emplace_back([&, i, share] {
            replayConnection(socketPath, tenant, share, window, paceUs,
                             zipfS, seed, i, digests, tallies[i]);
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    Tally total;
    bool connectFailed = false;
    for (const Tally &tally : tallies) {
        total.sent += tally.sent;
        total.ok += tally.ok;
        total.mismatches += tally.mismatches;
        total.errors += tally.errors;
        total.malformed += tally.malformed;
        connectFailed = connectFailed || tally.connectFailed;
    }

    std::uint64_t floodAnswered = 0;
    std::uint64_t overBudget = 0;
    if (flood > 0) {
        overBudget = floodPhase(socketPath, flood, floodAnswered);
        if (overBudget == static_cast<std::uint64_t>(-1))
            connectFailed = true;
    }

    std::string summary;
    common::JsonWriter(summary)
        .beginObject()
        .key("sent").integer(total.sent)
        .key("ok").integer(total.ok)
        .key("errors").integer(total.errors)
        .key("mismatches").integer(total.mismatches)
        .key("malformed").integer(total.malformed)
        .key("flood").beginObject()
        .key("sent").integer(flood)
        .key("answered").integer(floodAnswered)
        .key("over_budget").integer(connectFailed ? 0 : overBudget)
        .endObject()
        .endObject();
    std::printf("%s\n", summary.c_str());

    if (connectFailed)
        return 3;
    if (total.mismatches > 0 || total.errors > 0 ||
        total.malformed > 0 || total.ok != total.sent)
        return 1;
    if (expectThrottle && overBudget == 0)
        return 1;
    return 0;
}
