/**
 * @file
 * Perf emitter implementation.
 */

#include "perf_emit.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/buildinfo.h"
#include "common/env.h"
#include "common/json.h"
#include "common/logging.h"

namespace chason {
namespace bench {

const std::vector<PerfTier> &
perfTiers()
{
    // Iteration counts are sized so the full ladder stays in the low
    // tens of seconds on one core; the large tier matches the R-MAT
    // workload PERFORMANCE.md quotes its before/after numbers on.
    static const std::vector<PerfTier> tiers = {
        {"small", 14, 1u << 17, 1, 9},
        {"medium", 17, 1u << 20, 1, 5},
        {"large", 19, 1u << 22, 1, 3},
    };
    return tiers;
}

std::vector<PerfTier>
selectedPerfTiers()
{
    const std::string list = common::envString("CHASON_PERF_TIERS");
    if (list.empty())
        return perfTiers();
    std::vector<PerfTier> out;
    std::size_t pos = 0;
    while (pos <= list.size()) {
        std::size_t comma = list.find(',', pos);
        if (comma == std::string::npos)
            comma = list.size();
        const std::string name = list.substr(pos, comma - pos);
        if (!name.empty()) {
            bool found = false;
            for (const PerfTier &t : perfTiers()) {
                if (name == t.name) {
                    out.push_back(t);
                    found = true;
                    break;
                }
            }
            chason_assert(found, "CHASON_PERF_TIERS names unknown tier "
                          "'%s'", name.c_str());
        }
        pos = comma + 1;
    }
    chason_assert(!out.empty(), "CHASON_PERF_TIERS selected no tiers");
    return out;
}

bool
keepTiming(const PerfTier &tier, const std::vector<double> &times_ms)
{
    if (times_ms.size() < tier.iterations)
        return true;
    if (times_ms.size() >= kMaxTimedIterations)
        return false;
    double total = 0.0;
    for (const double t : times_ms)
        total += t;
    return total < kMinMeasuredMs;
}

double
nowMs()
{
    const auto t = std::chrono::steady_clock::now().time_since_epoch();
    return std::chrono::duration<double, std::milli>(t).count();
}

double
medianOf(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    if (n % 2 == 1)
        return samples[n / 2];
    return 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

void
writePerfJson(const std::string &path, const std::string &bench,
              const std::string &unit,
              const std::vector<PerfSample> &samples)
{
    constexpr const char *kMetric = "%.6g";
    std::string out;
    common::JsonWriter w(out);
    w.beginObject().key("bench").string(bench).key("unit").string(unit)
        .key("git_rev").string(common::gitRevision())
        .space("\n ").key("tiers").beginArray();
    for (const PerfSample &s : samples) {
        w.space("\n  ").beginObject()
            .key("tier").string(s.tier)
            .key("rows").integer(s.rows)
            .key("cols").integer(s.cols)
            .key("nnz").integer(s.nnz)
            .key("warmups").integer(s.warmups)
            .key("iterations").integer(s.iterations)
            .key("median_ms").number(s.medianMs, kMetric)
            .key("throughput_per_s").number(s.throughputPerS, kMetric);
        // A zero cycle count means "this bench does not simulate", not
        // "it simulated nothing" — leave the field out rather than
        // emit a misleading number.
        if (s.cycles != 0)
            w.key("cycles").integer(s.cycles);
        w.key("checksum").number(s.checksum, "%.17g");
        if (s.coldMedianMs > 0.0)
            w.key("cold_median_ms").number(s.coldMedianMs, kMetric);
        if (s.jobsCount > 0)
            w.key("jobs").integer(s.jobsCount);
        if (s.scalingEfficiency >= 0.0)
            w.key("scaling_efficiency").number(s.scalingEfficiency, kMetric);
        if (s.cacheHitRate >= 0.0)
            w.key("cache_hit_rate").number(s.cacheHitRate, kMetric);
        w.endObject();
    }
    w.space("\n ").endArray().endObject();
    out += '\n';

    FILE *f = std::fopen(path.c_str(), "w");
    chason_assert(f != nullptr, "cannot write %s", path.c_str());
    std::fputs(out.c_str(), f);
    std::fclose(f);
}

} // namespace bench
} // namespace chason
