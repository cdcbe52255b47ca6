/**
 * @file
 * xoshiro256** implementation (public-domain algorithm by Blackman and
 * Vigna) plus the distribution helpers used by the workload generators.
 */

#include "common/rng.h"

#include <cmath>

#include "common/logging.h"

namespace chason {

std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s_)
        word = splitMix64(sm);
}

std::uint64_t
Rng::nextBounded(std::uint64_t bound)
{
    chason_assert(bound > 0, "nextBounded requires a positive bound");
    // Rejection sampling on the top of the range avoids modulo bias.
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
        const std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

std::int64_t
Rng::nextRange(std::int64_t lo, std::int64_t hi)
{
    chason_assert(lo <= hi, "nextRange requires lo <= hi");
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) // full 64-bit range
        return static_cast<std::int64_t>(next());
    return lo + static_cast<std::int64_t>(nextBounded(span));
}

std::uint64_t
Rng::unitThreshold(double p)
{
    constexpr double kScale = 0x1.0p53;
    // p * 2^53 is exact (a power-of-two scale), and so is its ceil.
    // The clamps keep the cast in range: negative, zero and NaN p admit
    // no k; p >= 1 admits every k.
    const double scaled = std::ceil(p * kScale);
    if (!(scaled > 0.0))
        return 0;
    if (scaled >= kScale)
        return std::uint64_t{1} << kUnitBits;
    return static_cast<std::uint64_t>(scaled);
}

bool
Rng::nextBool(double p)
{
    return nextDouble() < p;
}

double
Rng::nextGaussian()
{
    if (hasSpareGaussian_) {
        hasSpareGaussian_ = false;
        return spareGaussian_;
    }
    double u, v, s;
    do {
        u = 2.0 * nextDouble() - 1.0;
        v = 2.0 * nextDouble() - 1.0;
        s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    spareGaussian_ = v * factor;
    hasSpareGaussian_ = true;
    return u * factor;
}

std::uint64_t
Rng::nextZipf(std::uint64_t n, double s)
{
    chason_assert(n > 0, "nextZipf requires n > 0");
    chason_assert(s > 1.0, "nextZipf requires exponent s > 1");
    // Inverse-CDF via rejection (Devroye). Good enough for workload
    // generation; exactness of the distribution is not important, the
    // heavy tail is.
    const double b = std::pow(2.0, s - 1.0);
    for (;;) {
        const double u = nextDouble();
        const double v = nextDouble();
        const double x = std::floor(std::pow(u, -1.0 / (s - 1.0)));
        const double t = std::pow(1.0 + 1.0 / x, s - 1.0);
        // x >= 1 is a whole number, or +inf when u == 0; from 2^64 up
        // it has no uint64_t value and its rank is past any n.
        if (v * x * (t - 1.0) / (b - 1.0) <= t / b && x < 0x1.0p64) {
            const auto rank = static_cast<std::uint64_t>(x) - 1;
            if (rank < n)
                return rank;
        }
    }
}

Rng
Rng::split()
{
    return Rng(next() ^ 0xa0761d6478bd642full);
}

Rng
Rng::forStream(std::uint64_t seed, std::uint64_t stream)
{
    // Decorrelate seed and stream through separate SplitMix64 walks so
    // that neither adjacent seeds nor adjacent stream indices produce
    // related states.
    std::uint64_t state = seed;
    const std::uint64_t a = splitMix64(state);
    state ^= stream * 0x9e3779b97f4a7c15ull;
    const std::uint64_t b = splitMix64(state);
    return Rng(a ^ b);
}

} // namespace chason
