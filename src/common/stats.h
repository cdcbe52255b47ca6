/**
 * @file
 * Summary statistics, histograms and kernel-density estimates.
 *
 * The paper reports several results as probability density functions over
 * matrix corpora (Figs. 3, 11, 12); KdePdf reproduces those curves. The
 * speedup figures use geometric means, provided by SummaryStats.
 */

#ifndef CHASON_COMMON_STATS_H_
#define CHASON_COMMON_STATS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/thread_annotations.h"

namespace chason {

/**
 * Accumulates samples and answers the usual descriptive questions.
 * Percentile queries sort a copy lazily; cheap at corpus scale.
 *
 * Thread safety: the const accessors (min/max/percentile/mean/...) may
 * be called concurrently from any number of threads — the lazily
 * sorted cache they share is guarded by an internal mutex, so a shared
 * instance can feed several reporter threads (the serving daemon reads
 * p50/p95/p99 this way). add() is a mutation and needs external
 * synchronization against both other add()s and concurrent readers,
 * like any container.
 */
class SummaryStats
{
  public:
    SummaryStats() = default;

    // The cache mutex is identity, not state: copies/moves transfer
    // the samples and drop the cache (it re-sorts on first query).
    SummaryStats(const SummaryStats &other);
    SummaryStats &operator=(const SummaryStats &other);
    SummaryStats(SummaryStats &&other) noexcept;
    SummaryStats &operator=(SummaryStats &&other) noexcept;

    /** Add one sample. */
    void add(double sample);

    /** Add a batch of samples. */
    void add(const std::vector<double> &samples);

    std::size_t count() const { return samples_.size(); }
    bool empty() const { return samples_.empty(); }

    double min() const;
    double max() const;
    double sum() const;
    double mean() const;

    /** Geometric mean; all samples must be positive. */
    double geomean() const;

    /** Population standard deviation. */
    double stddev() const;

    /** Linear-interpolated percentile; p in [0, 100]. */
    double percentile(double p) const;

    double median() const { return percentile(50.0); }

    /** Read-only access to the raw samples in insertion order. */
    const std::vector<double> &samples() const { return samples_; }

  private:
    std::vector<double> samples_;
    /** Guards the lazy sort; taken only inside sorted(). */
    mutable common::Mutex sortMutex_;
    mutable std::vector<double> sorted_ GUARDED_BY(sortMutex_);
    mutable bool sortedValid_ GUARDED_BY(sortMutex_) = false;

    /**
     * The sorted view, built on first use after a mutation. Returning
     * a reference after dropping the lock is sound under the class
     * contract: only add() invalidates the cache, and add() may not
     * run concurrently with readers.
     */
    const std::vector<double> &sorted() const EXCLUDES(sortMutex_);
};

/** Fixed-width histogram over [lo, hi); out-of-range samples clamp. */
class Histogram
{
  public:
    Histogram(double lo, double hi, std::size_t bins);

    void add(double sample);
    void add(const std::vector<double> &samples);

    std::size_t bins() const { return counts_.size(); }
    std::size_t total() const { return total_; }
    std::size_t count(std::size_t bin) const;

    /** Center of a bin's interval. */
    double binCenter(std::size_t bin) const;

    /** Fraction of samples in a bin. */
    double frequency(std::size_t bin) const;

    /** Density (frequency / bin width), integrates to ~1. */
    double density(std::size_t bin) const;

    /** Index of the most populated bin. */
    std::size_t modeBin() const;

  private:
    double lo_;
    double hi_;
    double width_;
    std::vector<std::size_t> counts_;
    std::size_t total_ = 0;
};

/**
 * Log-bucketed histogram of non-negative samples in fixed memory, for
 * statistics a long-running process keeps forever (the serving
 * daemon's latency). count, sum, mean, min and max are exact. Each
 * power-of-two octave in [2^-32, 2^32) is split into kSubBuckets linear
 * buckets, so a bucket's midpoint is within 1/(2 kSubBuckets) (0.8 %)
 * of any sample in it; percentile() interpolates between midpoints the
 * way SummaryStats::percentile() interpolates between samples, so it
 * stays within that bound of the exact sorted percentile for samples in
 * range, and it is clamped to [min, max] (p0 and p100 are min and
 * max). Samples outside the range land in the first or last bucket;
 * zero and negative samples in a bucket of their own that reads 0.
 *
 * add() is a mutation and needs external synchronization, like any
 * container; reads cost the same whatever the sample count.
 */
class LogHistogram
{
  public:
    void add(double sample);

    std::uint64_t count() const { return count_; }
    bool empty() const { return count_ == 0; }
    double sum() const { return sum_; }
    double min() const;
    double max() const;
    double mean() const;

    /** Interpolated percentile over bucket midpoints; p in [0, 100]. */
    double percentile(double p) const;

  private:
    static constexpr int kMinExponent = -31; ///< frexp exponent of 2^-32
    static constexpr int kOctaves = 64;
    static constexpr unsigned kSubBuckets = 64;
    /** Bucket 0 holds samples <= 0; then octave-major, sub-minor. */
    static constexpr std::size_t kBuckets =
        1 + static_cast<std::size_t>(kOctaves) * kSubBuckets;

    static std::size_t bucketOf(double sample);
    static double midpointOf(std::size_t bucket);

    /**
     * The sample of rank @p rank: min and max exactly at the two ends,
     * otherwise the midpoint of the bucket that holds it.
     */
    double valueAtRank(std::uint64_t rank) const;

    std::array<std::uint64_t, kBuckets> counts_{};
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Gaussian kernel density estimate over a sample set, evaluated on a
 * uniform grid. Bandwidth defaults to Silverman's rule of thumb.
 */
class KdePdf
{
  public:
    /**
     * @param samples   the observations
     * @param bandwidth kernel bandwidth; <= 0 selects Silverman's rule
     */
    explicit KdePdf(std::vector<double> samples, double bandwidth = 0.0);

    /** Density at point x. */
    double density(double x) const;

    /** The bandwidth in use. */
    double bandwidth() const { return bandwidth_; }

    /** Location of the density peak over a scan of [lo, hi]. */
    double peak(double lo, double hi, std::size_t steps = 512) const;

    /**
     * Evaluate the density on a uniform grid of @p steps points spanning
     * [lo, hi]; returns (x, pdf(x)) pairs — the series plotted in the
     * paper's PDF figures.
     */
    std::vector<std::pair<double, double>>
    evaluate(double lo, double hi, std::size_t steps) const;

  private:
    std::vector<double> samples_;
    double bandwidth_;
};

/** Geometric mean of a vector (convenience wrapper). */
double geomean(const std::vector<double> &values);

} // namespace chason

#endif // CHASON_COMMON_STATS_H_
