/**
 * @file
 * Bench support implementation.
 */

#include "support.h"

#include <cstdio>

#include "common/env.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/stats.h"
#include "sparse/generators.h"

namespace chason {
namespace bench {

std::size_t
corpusSize()
{
    const std::uint64_t v = common::envUint("CHASON_CORPUS", 0);
    return v > 0 ? static_cast<std::size_t>(v) : 800;
}

Rng
tierRng(const std::string &tier)
{
    // FNV-1a over the tier name selects the stream; the base seed is
    // fixed so tier streams are stable across binaries and releases.
    return Rng::forStream(0xC4A50DA7A71E25ull, common::fnv1a(tier));
}

unsigned
jobCount()
{
    const std::uint64_t v = common::envUint("CHASON_JOBS", 0);
    if (v > 0)
        return static_cast<unsigned>(v);
    return 0; // BatchEngine default: one worker per hardware thread
}

core::BatchEngine &
sharedBatch()
{
    static core::BatchEngine batch{[] {
        core::BatchOptions options;
        options.workers = jobCount();
        return options;
    }()};
    return batch;
}

void
parallelFor(std::size_t n, const std::function<void(std::size_t)> &body)
{
    sharedBatch().parallelFor(n, body);
}

void
printHeader(const std::string &experiment, const std::string &paper_ref)
{
    std::printf("==============================================================\n");
    std::printf("%s\n", experiment.c_str());
    std::printf("Reproduces: %s\n", paper_ref.c_str());
    std::printf("==============================================================\n");
}

double
underutilizationOf(const sparse::CsrMatrix &a, core::Engine::Kind kind)
{
    return statsOf(a, kind).underutilizationPercent;
}

sched::ScheduleStats
statsOf(const sparse::CsrMatrix &a, core::Engine::Kind kind)
{
    const core::Engine engine(kind);
    return sched::analyze(*sharedBatch().schedule(engine, a));
}

core::SpmvReport
reportOf(const sparse::CsrMatrix &a, core::Engine::Kind kind,
         const std::string &tag)
{
    Rng rng(0xBE7C4);
    const std::vector<float> x = sparse::randomVector(a.cols(), rng);
    return sharedBatch().run(core::Engine(kind), a, x, tag);
}

void
printPdfSeries(const std::string &label,
               const std::vector<double> &samples, double lo, double hi,
               std::size_t steps)
{
    const KdePdf kde(samples);
    std::printf("# PDF series: %s (%zu samples, peak at %.1f)\n",
                label.c_str(), samples.size(), kde.peak(lo, hi));
    for (const auto &[x, pdf] : kde.evaluate(lo, hi, steps))
        std::printf("%s %7.2f %.5f\n", label.c_str(), x, pdf);
}

} // namespace bench
} // namespace chason
