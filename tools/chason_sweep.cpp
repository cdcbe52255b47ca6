/**
 * @file
 * chason_sweep — run a corpus through both engines and emit one JSON
 * line per matrix (the machine-readable counterpart of the Fig. 11/14
 * benches, for plotting and regression tracking).
 *
 * Matrices are scheduled and simulated concurrently on a
 * core::BatchEngine worker pool; offline schedules are shared through
 * its cache, so the per-matrix §5.2 end-to-end amortization section
 * reuses the schedule the simulation already paid for. Per-matrix
 * lines are buffered and emitted in corpus order, so they are
 * byte-identical for any --jobs value. The trailing summary line
 * reports the schedule-cache counters; those are deterministic as long
 * as the corpus' schedules fit the cache budget — once the LRU starts
 * evicting, eviction order (and therefore the hit/miss/eviction
 * counts) depends on how concurrent workers interleave.
 *
 * Usage:
 *   chason_sweep [--count N] [--table2] [--dozen] [--out FILE]
 *                [--jobs N] [--verify] [--trace FILE]
 *                [--artifact-dir DIR]
 *
 * --artifact-dir attaches the on-disk CHSA schedule store: a repeated
 * sweep over the same corpus serves every schedule from mmap'd
 * artifacts (disk hits) instead of rescheduling.
 *
 * --verify runs the static schedule verifier (verify/verifier.h) on
 * every schedule the sweep produces; an illegal schedule aborts the
 * sweep rather than contaminating the emitted numbers.
 *
 * --trace records the whole sweep (host scheduler phases, cache
 * hits/misses, queue depth, every simulation's device spans) into one
 * Chrome trace_event JSON file.
 *
 * Default: the first 100 sweep-corpus matrices to stdout, one worker
 * per hardware thread.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/chason.h"
#include "runtime/host.h"
#include "trace/chrome_export.h"
#include "trace/trace.h"

namespace {

using namespace chason;

/** §5.2: iterations the end-to-end amortization is reported over. */
constexpr unsigned kAmortizationIterations = 1000;

/** Per-iteration amortized latency, reusing the cached schedule. */
double
amortizedUs(core::BatchEngine &batch, core::Engine::Kind kind,
            const sparse::CsrMatrix &a)
{
    const core::Engine engine(kind);
    // A cache hit unless the entry was evicted since compare() filled
    // it (only possible under byte-budget pressure).
    const auto schedule = batch.schedule(engine, a);
    const runtime::HostSession session(engine.accelerator());
    return session.measure(*schedule, kAmortizationIterations, false)
        .amortizedPerIterationUs();
}

/** One corpus entry -> one JSON line. */
std::string
emitLine(core::BatchEngine &batch, const std::string &name,
         const sparse::CsrMatrix &a)
{
    Rng rng(0x57EE9);
    const std::vector<float> x = sparse::randomVector(a.cols(), rng);
    const core::Comparison cmp = batch.compare(a, x, name);

    std::string line = core::toJson(cmp);
    char e2e[192];
    std::snprintf(e2e, sizeof(e2e),
                  ",\"end_to_end\":{\"iterations\":%u,"
                  "\"chason_amortized_us\":%.9g,"
                  "\"serpens_amortized_us\":%.9g}}",
                  kAmortizationIterations,
                  amortizedUs(batch, core::Engine::Kind::Chason, a),
                  amortizedUs(batch, core::Engine::Kind::Serpens, a));
    line.pop_back(); // drop the closing brace, extend the object
    line += e2e;
    return line;
}

} // namespace

int
main(int argc, char **argv)
{
    std::size_t count = 100;
    bool table2 = false;
    bool dozen = false;
    std::string out_path;
    std::string trace_path;
    std::string artifact_dir;
    unsigned jobs = 0; // 0 = one worker per hardware thread
    bool verify = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--count" && i + 1 < argc) {
            count = static_cast<std::size_t>(
                std::strtoull(argv[++i], nullptr, 10));
        } else if (arg == "--table2") {
            table2 = true;
        } else if (arg == "--dozen") {
            dozen = true;
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (arg == "--jobs" && i + 1 < argc) {
            jobs = static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (arg == "--verify") {
            verify = true;
        } else if (arg == "--trace" && i + 1 < argc) {
            trace_path = argv[++i];
        } else if (arg == "--artifact-dir" && i + 1 < argc) {
            artifact_dir = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: chason_sweep [--count N] [--table2] "
                         "[--dozen] [--out FILE] [--jobs N] [--verify] "
                         "[--trace FILE] [--artifact-dir DIR]\n");
            return 2;
        }
    }

    std::FILE *out = stdout;
    if (!out_path.empty()) {
        out = std::fopen(out_path.c_str(), "w");
        if (!out)
            chason_fatal("cannot create '%s'", out_path.c_str());
    }

    std::vector<sparse::SweepEntry> entries;
    if (table2) {
        for (const sparse::DatasetEntry &e : sparse::table2())
            entries.push_back({e.id, e.generate});
    } else if (dozen) {
        for (const sparse::SweepEntry &e : sparse::serpensDozen())
            entries.push_back(e);
    } else {
        for (const sparse::SweepEntry &e : sparse::sweepCorpus(count))
            entries.push_back(e);
    }

    trace::TraceSink sink;
    core::BatchOptions options;
    options.workers = jobs;
    options.verifySchedules = verify;
    options.artifactDir = artifact_dir;
    if (!trace_path.empty())
        options.traceSink = &sink;
    core::BatchEngine batch(options);

    std::vector<std::string> lines(entries.size());
    batch.parallelFor(entries.size(), [&](std::size_t i) {
        lines[i] = emitLine(batch, entries[i].name,
                            entries[i].generate());
    });

    for (const std::string &line : lines)
        std::fprintf(out, "%s\n", line.c_str());

    const core::ScheduleCacheStats cache = batch.cache().stats();
    std::fprintf(out, "{\"summary\":{\"matrices\":%zu,\"schedule_cache\":%s}}\n",
                 entries.size(), core::toJson(cache).c_str());

    if (out != stdout)
        std::fclose(out);
    if (!trace_path.empty()) {
        trace::writeChromeTraceFile(sink, trace_path);
        std::fprintf(stderr, "chason_sweep: trace written to %s "
                     "(%zu spans)\n",
                     trace_path.c_str(), sink.spans().size());
    }
    std::fprintf(stderr,
                 "chason_sweep: %zu matrices emitted (%u workers, "
                 "cache hit rate %.0f%%)\n",
                 entries.size(), batch.workers(), 100.0 * cache.hitRate());
    return 0;
}
