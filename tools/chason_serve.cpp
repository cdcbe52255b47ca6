/**
 * @file
 * chason_serve — the streaming SpMV serving daemon.
 *
 * Listens on a Unix-domain socket for newline-delimited JSON requests
 * (docs/SERVING.md has the schema), runs them through a shared
 * core::BatchEngine, and answers one JSON line per request in order
 * per connection. QoS is per-tenant token buckets over a bounded
 * admission queue; rejected requests get typed error lines and never
 * stall accepted work.
 *
 * Signals:
 *   SIGUSR1        print one stats JSON line to stdout
 *   SIGTERM/SIGINT print final stats, drain admitted work, exit 0
 *
 * Example:
 *   chason_serve --socket /tmp/chason.sock --rate 50 --burst 16 \
 *                --artifact-dir /tmp/chason-artifacts
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>

#include "common/json.h"
#include "serve/daemon.h"
#include "tool_flags.h"

namespace {

// Self-signal flags: handlers only set these; all real work happens
// on the main thread's poll loop below.
volatile std::sig_atomic_t g_dumpStats = 0;
volatile std::sig_atomic_t g_terminate = 0;

void
onUsr1(int)
{
    g_dumpStats = 1;
}

void
onTerm(int)
{
    g_terminate = 1;
}

} // namespace

int
main(int argc, char **argv)
{
    using chason::tools::Flag;

    const char *socketPath = nullptr;
    unsigned workers = 0;
    unsigned queueCapacity = 64;
    double tokensPerSec = 0.0;
    double tokenBurst = 32.0;
    unsigned cacheMb = 0;
    const char *artifactDir = nullptr;
    bool verify = false;

    const Flag flags[] = {
        {"--socket", Flag::Kind::kString, &socketPath, "PATH",
         "Unix-domain socket to listen on (required)"},
        {"--workers", Flag::Kind::kUint, &workers, "N",
         "simulation worker threads (0 = auto)"},
        {"--queue", Flag::Kind::kUint, &queueCapacity, "N",
         "admission queue capacity (in-flight bound)"},
        {"--rate", Flag::Kind::kDouble, &tokensPerSec, "R",
         "per-tenant sustained requests/sec (0 = no QoS)"},
        {"--burst", Flag::Kind::kDouble, &tokenBurst, "B",
         "per-tenant burst allowance"},
        {"--cache-mb", Flag::Kind::kUint, &cacheMb, "MB",
         "schedule-cache budget in MiB (0 = default)"},
        {"--artifact-dir", Flag::Kind::kString, &artifactDir, "DIR",
         "two-tier schedule-artifact store (CHSA files)"},
        {"--verify", Flag::Kind::kBool, &verify, "",
         "statically verify every schedule"},
    };
    const std::size_t flagCount = sizeof(flags) / sizeof(flags[0]);

    const chason::tools::FlagParse parse =
        chason::tools::parseFlags(argc, argv, flags, flagCount);
    if (parse.help) {
        chason::tools::printFlagHelp(
            stdout, "chason_serve", flags, flagCount,
            "\nexit codes: 0 clean shutdown, 1 startup failure, "
            "2 usage error\n");
        return 0;
    }
    if (!parse.ok() || !parse.positional.empty() ||
        socketPath == nullptr) {
        chason::tools::printFlagHelp(stderr, "chason_serve", flags,
                                     flagCount, nullptr);
        return 2;
    }

    chason::serve::DaemonOptions options;
    options.socketPath = socketPath;
    options.workers = workers;
    options.queueCapacity = queueCapacity;
    options.tokensPerSec = tokensPerSec;
    options.tokenBurst = tokenBurst;
    if (cacheMb > 0)
        options.cacheBudgetBytes =
            static_cast<std::size_t>(cacheMb) << 20;
    if (artifactDir != nullptr)
        options.artifactDir = artifactDir;
    options.verifySchedules = verify;

    chason::serve::Daemon daemon(options);
    std::string error;
    if (!daemon.start(&error)) {
        std::fprintf(stderr, "chason_serve: %s\n", error.c_str());
        return 1;
    }

    struct sigaction action{};
    action.sa_handler = onUsr1;
    sigaction(SIGUSR1, &action, nullptr);
    action.sa_handler = onTerm;
    sigaction(SIGTERM, &action, nullptr);
    sigaction(SIGINT, &action, nullptr);
    action.sa_handler = SIG_IGN;
    sigaction(SIGPIPE, &action, nullptr);

    std::string ready;
    chason::common::JsonWriter(ready)
        .beginObject()
        .key("ready").boolean(true)
        .key("socket").string(socketPath)
        .endObject();
    std::printf("%s\n", ready.c_str());
    std::fflush(stdout);

    while (g_terminate == 0) {
        if (g_dumpStats != 0) {
            g_dumpStats = 0;
            std::printf("%s\n", daemon.statsJson().c_str());
            std::fflush(stdout);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }

    // Graceful drain first so the final stats line counts every
    // admitted request as served.
    daemon.shutdown();
    std::printf("%s\n", daemon.statsJson().c_str());
    std::fflush(stdout);
    return 0;
}
