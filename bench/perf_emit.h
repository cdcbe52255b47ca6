/**
 * @file
 * Machine-readable perf emitter for the BENCH_*.json trajectory.
 *
 * bench_perf_sched and bench_perf_sim measure the two offline hot
 * paths (CrHCS scheduling, streaming simulation) over a fixed ladder
 * of R-MAT tiers and write one JSON report each — BENCH_sched.json and
 * BENCH_sim.json. The reports are what tools/chason_perf_gate compares
 * against the committed pre-rewrite baselines in bench/baselines/, and
 * what docs/PERFORMANCE.md teaches how to read.
 *
 * Methodology (EXPERIMENTS.md "Perf trajectory"): every tier is
 * generated from its pinned tierRng stream, warmed up to steady state
 * (first-touch page faults on the ~100s-of-MB beat storage dominate a
 * cold run), then timed under a min-total-time policy (keepTiming):
 * at least the tier's iteration floor, continuing until >= 1 s of
 * measured time accumulates, so fast machines collect enough samples
 * for the median to rise above scheduler noise. The report stores the
 * median and the sample count actually taken. A result checksum rides
 * along so an A/B pair can prove it measured identical work.
 */

#ifndef CHASON_BENCH_PERF_EMIT_H_
#define CHASON_BENCH_PERF_EMIT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace chason {
namespace bench {

/** One R-MAT tier of the perf ladder. */
struct PerfTier
{
    const char *name;       ///< tier id and tierRng stream name
    std::uint32_t scale;    ///< R-MAT scale (2^scale rows/cols)
    std::size_t nnzTarget;  ///< requested non-zeros
    unsigned warmups;       ///< untimed runs before measuring
    unsigned iterations;    ///< minimum timed runs; see keepTiming()
};

/** The small/medium/large ladder both perf benches measure. */
const std::vector<PerfTier> &perfTiers();

/**
 * Tiers selected by the CHASON_PERF_TIERS env var (comma-separated
 * names, e.g. "small,large"); all of them when unset. Unknown names
 * are fatal — a typo must not silently shrink the ladder.
 */
std::vector<PerfTier> selectedPerfTiers();

/** keepTiming() keeps iterating until this much measured time. */
constexpr double kMinMeasuredMs = 1000.0;

/** Hard sample cap so a micro-tier cannot loop unboundedly. */
constexpr std::size_t kMaxTimedIterations = 201;

/**
 * Min-total-time iteration policy: true while another timed run
 * should be taken. Always admits the tier's iteration floor; past it,
 * keeps going until the samples in @p times_ms sum to kMinMeasuredMs
 * (capped at kMaxTimedIterations). A fixed 3-iteration loop made the
 * large-tier median noise-limited on fast machines; anchoring the
 * budget to measured wall time scales the sample count to however
 * fast the tier actually runs.
 */
bool keepTiming(const PerfTier &tier,
                const std::vector<double> &times_ms);

/** One measured tier as it appears in the report. */
struct PerfSample
{
    std::string tier;
    std::uint32_t rows = 0;
    std::uint32_t cols = 0;
    std::size_t nnz = 0;
    unsigned warmups = 0;
    unsigned iterations = 0; ///< timed runs actually measured
    double medianMs = 0.0;
    /** nnz/s for scheduling, simulated cycles/s for simulation. */
    double throughputPerS = 0.0;
    /** Simulated cycle total; 0 means the bench does not simulate
     *  and the field is omitted from the JSON. */
    std::uint64_t cycles = 0;
    /** Result fingerprint proving two runs measured identical work. */
    double checksum = 0.0;

    /**
     * Reference cost the tier is measured against, when the bench is
     * relative (bench_perf_load: cold CrHCS scheduling time, with
     * throughput_per_s the warm-start speedup). 0 = not applicable;
     * the field is omitted from the JSON.
     */
    double coldMedianMs = 0.0;

    /** Worker count driving the tier (bench_perf_batch); 0 = not a
     *  parallel-batch tier, the field is omitted from the JSON. */
    unsigned jobsCount = 0;

    /** throughput(jobs) / (throughput(1) * effective parallelism);
     *  negative = not applicable, the field is omitted. */
    double scalingEfficiency = -1.0;

    /** Schedule-cache hit rate over the batch; negative = not
     *  applicable, the field is omitted. */
    double cacheHitRate = -1.0;
};

/** Monotonic timestamp in milliseconds. */
double nowMs();

/** Median of @p samples (takes a copy; empty input returns 0). */
double medianOf(std::vector<double> samples);

/**
 * Write the report, one tier object per line:
 *
 *   {"bench":"sched","unit":"nnz_per_s","git_rev":"abc1234",
 *    "tiers":[
 *     {"tier":"small",...,"throughput_per_s":8.1e6,...},
 *     ...]}
 */
void writePerfJson(const std::string &path, const std::string &bench,
                   const std::string &unit,
                   const std::vector<PerfSample> &samples);

} // namespace bench
} // namespace chason

#endif // CHASON_BENCH_PERF_EMIT_H_
