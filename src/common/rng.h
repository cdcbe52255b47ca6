/**
 * @file
 * Deterministic random number generation for reproducible workloads.
 *
 * Every synthetic matrix and every sweep in the benchmark harness is driven
 * by a seeded Rng so that runs are bit-for-bit reproducible. The generator
 * is xoshiro256** seeded through SplitMix64, which is both fast and has
 * well-studied statistical quality.
 *
 * Determinism rule for concurrent code (core::BatchEngine, the bench
 * parallelFor loops): there is deliberately no process-global generator
 * in this module, and none may be introduced. Each job/worker derives a
 * private Rng from stable inputs — its own seed field, or
 * forStream(baseSeed, jobIndex) — never by drawing from a stream shared
 * across jobs, whose interleaving would depend on thread timing. Under
 * this rule, the same seed and the same job set produce bit-identical
 * results for any worker count (`--jobs N` == `--jobs 1`), which
 * tests/core/test_batch_engine.cc asserts.
 */

#ifndef CHASON_COMMON_RNG_H_
#define CHASON_COMMON_RNG_H_

#include <cstdint>

namespace chason {

/** SplitMix64 step; used for seeding and for cheap hash mixing. */
std::uint64_t splitMix64(std::uint64_t &state);

/**
 * xoshiro256** pseudo random number generator.
 *
 * Satisfies the essentials of the UniformRandomBitGenerator concept so it
 * can also be plugged into <random> distributions if ever needed, but the
 * member helpers below are preferred because their results are identical
 * across standard library implementations.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    std::uint64_t next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);

        return result;
    }

    std::uint64_t operator()() { return next(); }

    static constexpr std::uint64_t min() { return 0; }
    static constexpr std::uint64_t max() { return ~0ull; }

    /** Uniform integer in [0, bound). Requires bound > 0. */
    std::uint64_t nextBounded(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. Requires lo <= hi. */
    std::int64_t nextRange(std::int64_t lo, std::int64_t hi);

    /** Bits of nextDouble()'s mantissa: it returns k * 2^-kUnitBits. */
    static constexpr int kUnitBits = 53;

    /** The integer k behind the next nextDouble(), in [0, 2^53). */
    std::uint64_t nextUnitBits() { return next() >> (64 - kUnitBits); }

    /** Uniform double in [0, 1). */
    double nextDouble()
    {
        // 53 high-quality bits into the mantissa; the product is exact.
        return static_cast<double>(nextUnitBits()) * 0x1.0p-53;
    }

    /**
     * The integer form of the test nextDouble() < p: for every k in
     * [0, 2^53), k * 2^-53 < p exactly when k < unitThreshold(p). It is
     * ceil(p * 2^53) clamped to [0, 2^53] (0 for NaN), so a caller can
     * compare nextUnitBits() against it without a branch on a double.
     */
    static std::uint64_t unitThreshold(double p);

    /** Uniform float in [lo, hi). */
    float nextFloat(float lo, float hi)
    {
        return lo + static_cast<float>(nextDouble()) * (hi - lo);
    }

    /** Bernoulli trial with probability p of returning true. */
    bool nextBool(double p);

    /** Standard normal variate (Box-Muller, deterministic). */
    double nextGaussian();

    /**
     * Zipf-like integer in [0, n): rank r drawn with probability
     * proportional to 1 / (r + 1)^s. Used for power-law graph degrees.
     */
    std::uint64_t nextZipf(std::uint64_t n, double s);

    /** Fork an independent stream (deterministic function of this one). */
    Rng split();

    /**
     * An independent generator for job @p stream of a run seeded with
     * @p seed — the shared-nothing per-worker construction of the
     * determinism rule above. Pure function of its arguments:
     * forStream(s, i) is the same generator on every thread, every
     * run, every worker count.
     */
    static Rng forStream(std::uint64_t seed, std::uint64_t stream);

  private:
    static std::uint64_t rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
    bool hasSpareGaussian_ = false;
    double spareGaussian_ = 0.0;
};

} // namespace chason

#endif // CHASON_COMMON_RNG_H_
