/**
 * @file
 * Known-answer tests for common/hash.h: the published 64-bit FNV-1a
 * vectors, chaining a split input through the running-state overload,
 * and the bulk digest's output on fixed byte strings (CHSA checksums
 * and matrix fingerprints depend on it).
 */

#include "common/hash.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace chason {
namespace common {
namespace {

TEST(Fnv1a, KnownAnswers)
{
    EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ull);
}

TEST(Fnv1a, ChainsAcrossSplits)
{
    const std::string foo = "foo", bar = "bar";
    EXPECT_EQ(fnv1a(bar.data(), bar.size(), fnv1a(foo)), fnv1a("foobar"));
}

/** A fixed, non-periodic byte string of @p n bytes. */
std::vector<std::uint8_t>
pattern(std::size_t n)
{
    std::vector<std::uint8_t> bytes(n);
    for (std::size_t i = 0; i < n; ++i)
        bytes[i] = static_cast<std::uint8_t>((i * 131 + 17) ^ (i >> 8));
    return bytes;
}

TEST(ArtifactHash, KnownAnswers)
{
    // Recorded from the digest's previous home in sched/artifact.cc,
    // so every CHSA checksum is unchanged. The sizes cover the empty
    // string, a tail shorter than one 8-byte word after three words,
    // and a second 4 MiB chunk of 7 bytes.
    EXPECT_EQ(artifactHash(nullptr, 0), 0xaf63bd4c29620a93ull);
    const std::vector<std::uint8_t> small = pattern(31);
    EXPECT_EQ(artifactHash(small.data(), small.size()),
              0x4bb34ab9ccf6caabull);
    const std::vector<std::uint8_t> large = pattern(kHashChunkBytes + 7);
    EXPECT_EQ(artifactHash(large.data(), large.size()),
              0x9979fc238a59e4b0ull);
}

} // namespace
} // namespace common
} // namespace chason
