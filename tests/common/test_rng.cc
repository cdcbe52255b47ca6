/**
 * @file
 * Unit and statistical tests for the deterministic RNG.
 */

#include "common/rng.h"

#include <gtest/gtest.h>

#include <bit>
#include <set>

namespace chason {
namespace {

TEST(Rng, DeterministicForSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, InlineDrawsMatchRecordedSequence)
{
    // The first 64 draws of each kind from seed 2026, recorded as bit
    // patterns. The workload generators, their golden digests and every
    // served x depend on these exact streams.
    constexpr std::uint64_t kNext[64] = {
        0x92e011592e98ae15ull, 0x489f37946d6d18d8ull, 0xd0009e279d9cdedaull,
        0xe4c7dca786d56702ull, 0xcfe18b79c1223acaull, 0xc9edb1a3f94f7148ull,
        0xd56e344e58dba5acull, 0xd4321a38c6817e57ull, 0xdc6b52eacc5ba07bull,
        0x3ce5258da93e8ed5ull, 0xf749532e75dc495full, 0x51d56912fbcd4608ull,
        0xdf41701254fe5188ull, 0xbb77a08eff2a9d0eull, 0x798d0652d40a13c1ull,
        0xbfcc1780cf7bfb2full, 0x3790ca2124bc96e1ull, 0x2fa64956a60c2d63ull,
        0xbda37e3caa61e573ull, 0x663c2b23faec2a1full, 0x144abcb86d7222b0ull,
        0x426a15d232eadf70ull, 0xabb5e0e54cedebe8ull, 0x36dfeb8692f42d9cull,
        0xe6450ceb4f932220ull, 0x217f574f65b7d6fcull, 0xeb1d4294596549cbull,
        0x6d2673bfef7b13abull, 0xd3ceb760e449a31eull, 0x3ef74f9b94be9b64ull,
        0xa97fa8a7e55ad3cfull, 0x8719ba2625aba158ull, 0x4db8eb45708e8840ull,
        0x35acb81f203c3ecaull, 0x3d61f94375dcccedull, 0x12183829c0ac4049ull,
        0x9c232109d964c310ull, 0x053e64f0e90ad983ull, 0x7176f93bcc331c9bull,
        0x8f6624440efb288dull, 0x52f0c2c04792a679ull, 0xa84d196a7c165ba4ull,
        0x8323c97a854f6979ull, 0xcfe787d5754679c7ull, 0xc0e9a09653731d8eull,
        0x311720c0e72860a4ull, 0x5cbb02c5d50ef0fdull, 0x24c1096a5aa92a88ull,
        0xe027be88551c8b5bull, 0x96026a7e6c4ab1d7ull, 0xcf890289286c822eull,
        0x26dd2646794fca9eull, 0xe5f771db1a3ff3a0ull, 0xd557b8b38a0f122bull,
        0xe7735fd8bcfd6179ull, 0xb6dfbb48270ca07cull, 0x4798a3fee258a7fcull,
        0x2c7ccc4b9db0fabbull, 0xfd8496691a1d7826ull, 0xaf3729a168e674e3ull,
        0x139324bc8d74d178ull, 0x68f418efb4ccb12dull, 0x5230c4f0aec1847eull,
        0x0341094bdbded837ull,
    };
    constexpr std::uint64_t kDoubleBits[64] = {
        0x3fe25c022b25d315ull, 0x3fd227cde51b5b46ull, 0x3fea0013c4f3b39bull,
        0x3fec98fb94f0daacull, 0x3fe9fc316f382447ull, 0x3fe93db6347f29eeull,
        0x3feaadc689cb1b74ull, 0x3fea86434718d02full, 0x3feb8d6a5d598b74ull,
        0x3fce7292c6d49f44ull, 0x3feee92a65cebb89ull, 0x3fd4755a44bef350ull,
        0x3febe82e024a9fcaull, 0x3fe76ef411dfe553ull, 0x3fde634194b50284ull,
        0x3fe7f982f019ef7full, 0x3fcbc86510925e48ull, 0x3fc7d324ab530614ull,
        0x3fe7b46fc7954c3cull, 0x3fd98f0ac8febb0aull, 0x3fb44abcb86d7220ull,
        0x3fd09a85748cbab6ull, 0x3fe576bc1ca99dbdull, 0x3fcb6ff5c3497a14ull,
        0x3fecc8a19d69f264ull, 0x3fc0bfaba7b2dbe8ull, 0x3fed63a8528b2ca9ull,
        0x3fdb499ceffbdec4ull, 0x3fea79d6ec1c8934ull, 0x3fcf7ba7cdca5f4cull,
        0x3fe52ff514fcab5aull, 0x3fe0e33744c4b574ull, 0x3fd36e3ad15c23a2ull,
        0x3fcad65c0f901e1cull, 0x3fceb0fca1baee64ull, 0x3fb2183829c0ac40ull,
        0x3fe38464213b2c98ull, 0x3f94f993c3a42b60ull, 0x3fdc5dbe4ef30cc6ull,
        0x3fe1ecc48881df65ull, 0x3fd4bc30b011e4a8ull, 0x3fe509a32d4f82cbull,
        0x3fe064792f50a9edull, 0x3fe9fcf0faaea8cfull, 0x3fe81d3412ca6e63ull,
        0x3fc88b9060739430ull, 0x3fd72ec0b17543bcull, 0x3fc26084b52d5494ull,
        0x3fec04f7d10aa391ull, 0x3fe2c04d4fcd8956ull, 0x3fe9f12051250d90ull,
        0x3fc36e93233ca7e4ull, 0x3fecbeee3b6347feull, 0x3feaaaf7167141e2ull,
        0x3fecee6bfb179facull, 0x3fe6dbf76904e194ull, 0x3fd1e628ffb89628ull,
        0x3fc63e6625ced87cull, 0x3fefb092cd2343afull, 0x3fe5e6e5342d1cceull,
        0x3fb39324bc8d74d0ull, 0x3fda3d063bed332cull, 0x3fd48c313c2bb060ull,
        0x3f8a084a5edef6c0ull,
    };
    constexpr std::uint32_t kFloatBits[64] = {
        0x3f1dc9a9u, 0x3eb5eb63u, 0x3f54cd5bu, 0x3f6780adu, 0x3f54b164u,
        0x3f4f55edu, 0x3f59affcu, 0x3f58937eu, 0x3f5ffa31u, 0x3ea0cfaau,
        0x3f782864u, 0x3ec68023u, 0x3f6287b2u, 0x3f425211u, 0x3f06feecu,
        0x3f4637afu, 0x3e9737d2u, 0x3e88f81du, 0x3f444658u, 0x3eeb391au,
        0x3e2f7374u, 0x3eaabef4u, 0x3f3423b1u, 0x3e95f975u, 0x3f68d7bfu,
        0x3e5efda0u, 0x3f6d33f0u, 0x3ef7ab9cu, 0x3f583a0bu, 0x3ea489f5u,
        0x3f322618u, 0x3f1330c1u, 0x3ebf19a7u, 0x3e93d07eu, 0x3ea1b05au,
        0x3e278a64u, 0x3f261f9eu, 0x3df28e0au, 0x3eff6fc0u, 0x3f1aa8bau,
        0x3ec87e2bu, 0x3f311230u, 0x3f0fa035u, 0x3f54b6c7u, 0x3f4738abu,
        0x3e8b9008u, 0x3eda1d6bu, 0x3e6ab6eeu, 0x3f6356f9u, 0x3f209bc6u,
        0x3f5461b6u, 0x3e724f56u, 0x3f6891e7u, 0x3f599bc0u, 0x3f69e7d6u,
        0x3f3e2fc2u, 0x3eb412c0u, 0x3e834709u, 0x3f7dc421u, 0x3f374b40u,
        0x3e2cde84u, 0x3ef01dc6u, 0x3ec72495u, 0x3de43aaau,
    };

    Rng raw(2026), unit(2026), real(2026);
    for (int i = 0; i < 64; ++i) {
        EXPECT_EQ(raw.next(), kNext[i]) << "next() #" << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(unit.nextDouble()),
                  kDoubleBits[i])
            << "nextDouble() #" << i;
        EXPECT_EQ(std::bit_cast<std::uint32_t>(real.nextFloat(0.1f, 1.0f)),
                  kFloatBits[i])
            << "nextFloat(0.1, 1) #" << i;
    }
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, NextBoundedInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBounded(17), 17u);
}

TEST(Rng, NextBoundedCoversRange)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.nextBounded(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextRangeInclusive)
{
    Rng rng(11);
    bool hit_lo = false, hit_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const std::int64_t v = rng.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        hit_lo |= v == -3;
        hit_hi |= v == 3;
    }
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
}

TEST(Rng, NextDoubleUniformish)
{
    Rng rng(13);
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) {
        const double v = rng.nextDouble();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, NextBoolProbability)
{
    Rng rng(17);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.nextBool(0.3);
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(19);
    double sum = 0.0, sq = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.nextGaussian();
        sum += v;
        sq += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, ZipfHeavyHead)
{
    Rng rng(23);
    int head = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const std::uint64_t r = rng.nextZipf(1000, 2.0);
        EXPECT_LT(r, 1000u);
        head += r == 0;
    }
    // Rank 0 carries ~ 1/zeta(2) ~ 61% of the mass.
    EXPECT_GT(head, n / 2);
}

TEST(Rng, SplitIndependentStreams)
{
    Rng a(31);
    Rng b = a.split();
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, ForStreamIsPureAndIndependent)
{
    // Pure function of (seed, stream): reconstructing the generator
    // yields the identical sequence — the per-worker determinism rule.
    Rng a = Rng::forStream(0xBEEF, 7);
    Rng b = Rng::forStream(0xBEEF, 7);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a.next(), b.next());

    // Adjacent streams and adjacent seeds are decorrelated.
    Rng c = Rng::forStream(0xBEEF, 8);
    Rng d = Rng::forStream(0xBEF0, 7);
    int same_stream = 0, same_seed = 0;
    for (int i = 0; i < 64; ++i) {
        const std::uint64_t r = a.next();
        same_stream += r == c.next();
        same_seed += r == d.next();
    }
    EXPECT_LT(same_stream, 2);
    EXPECT_LT(same_seed, 2);
}

TEST(SplitMix, KnownSequenceIsStable)
{
    std::uint64_t s = 0;
    const std::uint64_t first = splitMix64(s);
    const std::uint64_t second = splitMix64(s);
    EXPECT_NE(first, second);
    std::uint64_t s2 = 0;
    EXPECT_EQ(splitMix64(s2), first);
}

} // namespace
} // namespace chason
