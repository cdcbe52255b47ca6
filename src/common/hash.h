/**
 * @file
 * The project's two hashes.
 *
 * fnv1a() is byte-serial 64-bit FNV-1a for short keys whose exact hash
 * is a published identity (dataset and bench-tier seeds, lint
 * fingerprints, the served y digest, a scheduler's identity).
 *
 * artifactHash() is the bulk digest: four independent multiply-xor
 * lanes over 32-byte stripes, folded over fixed kHashChunkBytes
 * chunks. It runs at memory bandwidth where FNV-1a serializes on one
 * multiply per byte. Every CHSA checksum (sched/artifact.h) uses it,
 * and core::fingerprint digests a matrix's CSR arrays with it; its
 * output for a given byte string is part of the CHSA format.
 */

#ifndef CHASON_COMMON_HASH_H_
#define CHASON_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace chason {
namespace common {

constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnv1aPrime = 0x100000001b3ull;

/** FNV-1a of @p size bytes at @p data, continuing from @p hash. */
inline std::uint64_t
fnv1a(const void *data, std::size_t size,
      std::uint64_t hash = kFnv1aOffset)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= kFnv1aPrime;
    }
    return hash;
}

/** FNV-1a of the bytes of @p text. */
inline std::uint64_t
fnv1a(std::string_view text)
{
    return fnv1a(text.data(), text.size());
}

/** Chunk size artifactHash folds over; part of the CHSA format. */
inline constexpr std::size_t kHashChunkBytes = std::size_t{4} << 20;

/**
 * Digest of one chunk (any length <= kHashChunkBytes). Four
 * independent multiply-xor lanes walk 32-byte stripes so the loop
 * pipelines at memory bandwidth instead of serializing on one
 * multiply chain.
 */
inline std::uint64_t
chunkHash(const void *data, std::size_t n)
{
    constexpr std::uint64_t kLaneSalt = 0x9e3779b97f4a7c15ull;
    const auto *p = static_cast<const unsigned char *>(data);
    const auto word = [p](std::size_t at) {
        std::uint64_t w;
        std::memcpy(&w, p + at, sizeof(w));
        return w;
    };

    std::uint64_t lane[4];
    for (unsigned k = 0; k < 4; ++k)
        lane[k] = kFnv1aOffset ^ (kLaneSalt * (k + 1));

    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        lane[0] = (lane[0] ^ word(i)) * kFnv1aPrime;
        lane[1] = (lane[1] ^ word(i + 8)) * kFnv1aPrime;
        lane[2] = (lane[2] ^ word(i + 16)) * kFnv1aPrime;
        lane[3] = (lane[3] ^ word(i + 24)) * kFnv1aPrime;
    }
    unsigned k = 0;
    for (; i + 8 <= n; i += 8) {
        lane[k] = (lane[k] ^ word(i)) * kFnv1aPrime;
        k = (k + 1) & 3;
    }
    if (i < n) {
        std::uint64_t w = 0;
        std::memcpy(&w, p + i, n - i);
        lane[k] = (lane[k] ^ w) * kFnv1aPrime;
    }

    std::uint64_t h = kFnv1aOffset ^ n;
    for (unsigned j = 0; j < 4; ++j) {
        h = (h ^ lane[j]) * kFnv1aPrime;
        h ^= h >> 29;
    }
    h *= kLaneSalt;
    h ^= h >> 32;
    return h;
}

/** Fold state combining chunk digests in payload order. */
struct ChunkFold
{
    std::uint64_t h = kFnv1aOffset;
    std::uint64_t total = 0;

    void
    add(std::uint64_t chunk_digest, std::size_t chunk_bytes)
    {
        h = (h ^ chunk_digest) * kFnv1aPrime;
        h ^= h >> 31;
        total += chunk_bytes;
    }

    std::uint64_t
    finish() const
    {
        std::uint64_t out = (h ^ total) * kFnv1aPrime;
        out ^= out >> 32;
        return out;
    }
};

/** The bulk digest of @p bytes at @p data. */
inline std::uint64_t
artifactHash(const void *data, std::size_t bytes)
{
    const auto *p = static_cast<const unsigned char *>(data);
    ChunkFold fold;
    for (std::size_t off = 0; off < bytes; off += kHashChunkBytes) {
        const std::size_t n =
            bytes - off < kHashChunkBytes ? bytes - off : kHashChunkBytes;
        fold.add(chunkHash(p + off, n), n);
    }
    return fold.finish();
}

} // namespace common
} // namespace chason

#endif // CHASON_COMMON_HASH_H_
