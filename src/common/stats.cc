/**
 * @file
 * Implementation of the statistics helpers.
 */

#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/logging.h"

namespace chason {

SummaryStats::SummaryStats(const SummaryStats &other)
    : samples_(other.samples_)
{
}

SummaryStats &
SummaryStats::operator=(const SummaryStats &other)
{
    if (this != &other) {
        samples_ = other.samples_;
        common::MutexLock lock(sortMutex_);
        sorted_.clear();
        sortedValid_ = false;
    }
    return *this;
}

SummaryStats::SummaryStats(SummaryStats &&other) noexcept
    : samples_(std::move(other.samples_))
{
}

SummaryStats &
SummaryStats::operator=(SummaryStats &&other) noexcept
{
    if (this != &other) {
        samples_ = std::move(other.samples_);
        common::MutexLock lock(sortMutex_);
        sorted_.clear();
        sortedValid_ = false;
    }
    return *this;
}

void
SummaryStats::add(double sample)
{
    samples_.push_back(sample);
    common::MutexLock lock(sortMutex_);
    sortedValid_ = false;
}

void
SummaryStats::add(const std::vector<double> &samples)
{
    samples_.insert(samples_.end(), samples.begin(), samples.end());
    common::MutexLock lock(sortMutex_);
    sortedValid_ = false;
}

const std::vector<double> &
SummaryStats::sorted() const
{
    // Concurrent const readers race only to *build* the cache: the
    // first one under the lock sorts, the rest see the valid flag. A
    // reference escaping the lock is safe because invalidation (add)
    // is exclusive by contract.
    common::MutexLock lock(sortMutex_);
    if (!sortedValid_) {
        sorted_ = samples_;
        std::sort(sorted_.begin(), sorted_.end());
        sortedValid_ = true;
    }
    return sorted_;
}

double
SummaryStats::min() const
{
    chason_assert(!empty(), "min of empty sample set");
    return sorted().front();
}

double
SummaryStats::max() const
{
    chason_assert(!empty(), "max of empty sample set");
    return sorted().back();
}

double
SummaryStats::sum() const
{
    return std::accumulate(samples_.begin(), samples_.end(), 0.0);
}

double
SummaryStats::mean() const
{
    chason_assert(!empty(), "mean of empty sample set");
    return sum() / static_cast<double>(count());
}

double
SummaryStats::geomean() const
{
    chason_assert(!empty(), "geomean of empty sample set");
    double log_sum = 0.0;
    for (double s : samples_) {
        chason_assert(s > 0.0, "geomean requires positive samples");
        log_sum += std::log(s);
    }
    return std::exp(log_sum / static_cast<double>(count()));
}

double
SummaryStats::stddev() const
{
    chason_assert(!empty(), "stddev of empty sample set");
    const double m = mean();
    double acc = 0.0;
    for (double s : samples_)
        acc += (s - m) * (s - m);
    return std::sqrt(acc / static_cast<double>(count()));
}

double
SummaryStats::percentile(double p) const
{
    chason_assert(!empty(), "percentile of empty sample set");
    chason_assert(p >= 0.0 && p <= 100.0, "percentile out of range");
    const auto &v = sorted();
    if (v.size() == 1)
        return v.front();
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const auto idx = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(idx);
    if (idx + 1 >= v.size())
        return v.back();
    return v[idx] * (1.0 - frac) + v[idx + 1] * frac;
}

void
LogHistogram::add(double sample)
{
    ++counts_[bucketOf(sample)];
    min_ = count_ == 0 ? sample : std::min(min_, sample);
    max_ = count_ == 0 ? sample : std::max(max_, sample);
    ++count_;
    sum_ += sample;
}

double
LogHistogram::min() const
{
    chason_assert(!empty(), "min of empty histogram");
    return min_;
}

double
LogHistogram::max() const
{
    chason_assert(!empty(), "max of empty histogram");
    return max_;
}

double
LogHistogram::mean() const
{
    chason_assert(!empty(), "mean of empty histogram");
    return sum_ / static_cast<double>(count_);
}

std::size_t
LogHistogram::bucketOf(double sample)
{
    if (!(sample > 0.0))
        return 0;
    int exponent = 0;
    const double mantissa = std::frexp(sample, &exponent); // [0.5, 1)
    const int octave = exponent - kMinExponent;
    if (octave < 0)
        return 1;
    if (octave >= kOctaves)
        return kBuckets - 1;
    const auto sub = static_cast<std::size_t>(
        (mantissa - 0.5) * 2.0 * kSubBuckets);
    return 1 + static_cast<std::size_t>(octave) * kSubBuckets +
        std::min<std::size_t>(sub, kSubBuckets - 1);
}

double
LogHistogram::midpointOf(std::size_t bucket)
{
    if (bucket == 0)
        return 0.0;
    const std::size_t octave = (bucket - 1) / kSubBuckets;
    const std::size_t sub = (bucket - 1) % kSubBuckets;
    const double mantissa =
        0.5 + (static_cast<double>(sub) + 0.5) / (2.0 * kSubBuckets);
    return std::ldexp(mantissa,
                      static_cast<int>(octave) + kMinExponent);
}

double
LogHistogram::valueAtRank(std::uint64_t rank) const
{
    if (rank == 0)
        return min_;
    if (rank + 1 == count_)
        return max_;
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
        seen += counts_[b];
        if (rank < seen)
            return midpointOf(b);
    }
    return max_;
}

double
LogHistogram::percentile(double p) const
{
    chason_assert(!empty(), "percentile of empty histogram");
    chason_assert(p >= 0.0 && p <= 100.0, "percentile out of range");
    const double pos = p / 100.0 * static_cast<double>(count_ - 1);
    const auto idx = static_cast<std::uint64_t>(pos);
    const double frac = pos - static_cast<double>(idx);
    double value = valueAtRank(idx);
    if (idx + 1 < count_)
        value = value * (1.0 - frac) + valueAtRank(idx + 1) * frac;
    return std::clamp(value, min_, max_);
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0)
{
    chason_assert(hi > lo, "histogram range must be non-empty");
    chason_assert(bins > 0, "histogram needs at least one bin");
}

void
Histogram::add(double sample)
{
    // Edge samples are placed explicitly: anything at or below lo
    // lands in bin 0, anything at or above hi in the last bin. The
    // division path is only ever used strictly inside (lo, hi), where
    // rounding in (hi - lo) / bins can still push a sample just under
    // a bin boundary over it, so the result is clamped as well.
    std::size_t bin;
    if (sample <= lo_) {
        bin = 0;
    } else if (sample >= hi_) {
        bin = counts_.size() - 1;
    } else {
        bin = static_cast<std::size_t>((sample - lo_) / width_);
        if (bin >= counts_.size())
            bin = counts_.size() - 1;
    }
    ++counts_[bin];
    ++total_;
}

void
Histogram::add(const std::vector<double> &samples)
{
    for (double s : samples)
        add(s);
}

std::size_t
Histogram::count(std::size_t bin) const
{
    chason_assert(bin < counts_.size(), "histogram bin out of range");
    return counts_[bin];
}

double
Histogram::binCenter(std::size_t bin) const
{
    chason_assert(bin < counts_.size(), "histogram bin out of range");
    return lo_ + (static_cast<double>(bin) + 0.5) * width_;
}

double
Histogram::frequency(std::size_t bin) const
{
    if (total_ == 0)
        return 0.0;
    return static_cast<double>(count(bin)) / static_cast<double>(total_);
}

double
Histogram::density(std::size_t bin) const
{
    return frequency(bin) / width_;
}

std::size_t
Histogram::modeBin() const
{
    return static_cast<std::size_t>(
        std::max_element(counts_.begin(), counts_.end()) - counts_.begin());
}

KdePdf::KdePdf(std::vector<double> samples, double bandwidth)
    : samples_(std::move(samples)), bandwidth_(bandwidth)
{
    chason_assert(!samples_.empty(), "KDE over empty sample set");
    if (bandwidth_ <= 0.0) {
        // Silverman's rule of thumb: 1.06 * sigma * n^(-1/5).
        SummaryStats st;
        st.add(samples_);
        double sigma = st.stddev();
        if (sigma <= 0.0)
            sigma = 1.0; // degenerate sample set; any bandwidth works
        bandwidth_ = 1.06 * sigma *
            std::pow(static_cast<double>(samples_.size()), -0.2);
    }
}

double
KdePdf::density(double x) const
{
    const double inv_h = 1.0 / bandwidth_;
    const double norm =
        inv_h / (std::sqrt(2.0 * M_PI) * static_cast<double>(samples_.size()));
    double acc = 0.0;
    for (double s : samples_) {
        const double z = (x - s) * inv_h;
        acc += std::exp(-0.5 * z * z);
    }
    return acc * norm;
}

double
KdePdf::peak(double lo, double hi, std::size_t steps) const
{
    chason_assert(steps >= 2, "peak scan needs at least two points");
    double best_x = lo;
    double best_d = -1.0;
    for (std::size_t i = 0; i < steps; ++i) {
        const double x = lo + (hi - lo) * static_cast<double>(i) /
            static_cast<double>(steps - 1);
        const double d = density(x);
        if (d > best_d) {
            best_d = d;
            best_x = x;
        }
    }
    return best_x;
}

std::vector<std::pair<double, double>>
KdePdf::evaluate(double lo, double hi, std::size_t steps) const
{
    chason_assert(steps >= 2, "evaluate needs at least two points");
    std::vector<std::pair<double, double>> out;
    out.reserve(steps);
    for (std::size_t i = 0; i < steps; ++i) {
        const double x = lo + (hi - lo) * static_cast<double>(i) /
            static_cast<double>(steps - 1);
        out.emplace_back(x, density(x));
    }
    return out;
}

double
geomean(const std::vector<double> &values)
{
    SummaryStats st;
    st.add(values);
    return st.geomean();
}

} // namespace chason
