/**
 * @file
 * CHSA v1: the versioned on-disk schedule artifact.
 *
 * CrHCS is one-shot offline preprocessing amortized over millions of
 * SpMV launches, so a cold process should never pay the scheduling
 * cost for a matrix that was already scheduled — it should mmap the
 * stored artifact and serve it. CHSA ("CHasoň Schedule Artifact") is
 * that store: a fixed little-endian layout whose beat payload is the
 * *in-memory* `Beat` array byte-for-byte (the layout pins in
 * sched/schedule.h enforce this), so loading is O(header) validation
 * plus page faults, not a parse. Unlike the §3.2 64-bit wire encoding
 * (encodeChannelStream in sched/schedule.h), which only names the
 * immediate next channel and is therefore restricted to
 * migrationDepth <= 1, CHSA stores full slots and round-trips any
 * schedule bit-exactly. It is the only on-disk schedule format.
 *
 * File layout (all integers little-endian, docs/ARTIFACT_FORMAT.md has
 * the byte-level reference):
 *
 *   ArtifactHeader                 64 B, checksummed with the field
 *                                  itself zeroed
 *   SectionEntry[sectionCount]     32 B each: kind, offset, bytes,
 *                                  checksum
 *   meta section                   ArtifactMeta (config + shape + key)
 *   phase section                  ArtifactPhase[phaseCount], then
 *                                  u64 beatCount[phaseCount*channels]
 *   beat section                   64-byte-aligned concatenation of
 *                                  every (phase, channel) beat stream
 *                                  in phase-major order
 *
 * Every section carries a checksum over its bytes: artifactHash(), a
 * 4-lane FNV-style multiply-xor digest folded over fixed 4 MiB chunks.
 * The chunking lets the writer stream the payload through a fixed
 * buffer and still produce the digest the reader computes over the
 * contiguous mapping.
 *
 * Failure model: ArtifactReader::open never panics on a malformed
 * file — every defect maps to an ArtifactStatus so callers (the
 * two-tier core::ScheduleCache, the chason_verify admission gate) can
 * reject the artifact and fall back to rescheduling. Writing uses a
 * temp-file + rename so a crashed writer never leaves a torn artifact
 * under the final name.
 */

#ifndef CHASON_SCHED_ARTIFACT_H_
#define CHASON_SCHED_ARTIFACT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sched/schedule.h"

namespace chason {
namespace sched {

/** "CHSA-ART" as a little-endian u64. */
inline constexpr std::uint64_t kArtifactMagic = 0x5452'412d'4153'4843ull;

/** Current (and only) format version. */
inline constexpr std::uint32_t kArtifactVersion = 1;

/** Fixed checksum chunk size; part of the format, not a tunable. */
inline constexpr std::size_t kArtifactChunkBytes = std::size_t{4} << 20;

/** Alignment of the beat payload section. */
inline constexpr std::size_t kArtifactPayloadAlign = 64;

/** Section kinds of the v1 section table. */
enum class ArtifactSection : std::uint32_t
{
    kMeta = 1,   ///< ArtifactMeta
    kPhases = 2, ///< phase records + per-(phase, channel) beat counts
    kBeats = 3,  ///< raw Beat payload
};

/** Fixed 64-byte file header. */
struct ArtifactHeader
{
    std::uint64_t magic = kArtifactMagic;
    std::uint32_t version = kArtifactVersion;
    std::uint32_t headerBytes = 0; ///< sizeof(ArtifactHeader)
    std::uint64_t fileBytes = 0;   ///< total file size, for truncation
    std::uint64_t keyLo = 0;       ///< matrix fingerprint, low word
    std::uint64_t keyHi = 0;       ///< matrix fingerprint, high word
    std::uint64_t keyScheduler = 0; ///< scheduler identity/config hash
    std::uint32_t sectionCount = 0;
    std::uint32_t sectionEntryBytes = 0; ///< sizeof(ArtifactSectionEntry)
    std::uint64_t headerChecksum = 0; ///< artifactHash, this field zeroed
};
static_assert(sizeof(ArtifactHeader) == 64, "CHSA v1 header is 64 bytes");

/** One section-table entry. */
struct ArtifactSectionEntry
{
    std::uint32_t kind = 0; ///< ArtifactSection
    std::uint32_t reserved = 0;
    std::uint64_t offset = 0; ///< from file start
    std::uint64_t bytes = 0;
    std::uint64_t checksum = 0; ///< artifactHash over the section bytes
};
static_assert(sizeof(ArtifactSectionEntry) == 32,
              "CHSA v1 section entries are 32 bytes");

/** Shape + config metadata (the meta section). */
struct ArtifactMeta
{
    std::uint64_t nnz = 0;
    std::uint32_t channels = 0;
    std::uint32_t precisionBits = 0; ///< 32 or 64
    std::uint32_t pesOverride = 0;
    std::uint32_t rawDistance = 0;
    std::uint32_t windowCols = 0;
    std::uint32_t rowsPerLanePerPass = 0;
    std::uint32_t migrationDepth = 0;
    std::uint32_t rows = 0;
    std::uint32_t cols = 0;
    std::uint32_t phaseCount = 0;
    std::uint32_t schedulerNameLen = 0;
    std::uint32_t reserved = 0;
    char schedulerName[64] = {};
};
static_assert(sizeof(ArtifactMeta) == 120, "CHSA v1 meta is 120 bytes");

/** One phase record of the phase section. */
struct ArtifactPhase
{
    std::uint32_t pass = 0;
    std::uint32_t window = 0;
    std::uint64_t alignedBeats = 0;
};
static_assert(sizeof(ArtifactPhase) == 16,
              "CHSA v1 phase records are 16 bytes");

/**
 * The cache identity an artifact is stored under: matrix fingerprint
 * plus scheduler identity/config hash. Mirrors core::ScheduleKey
 * without depending on chason_core (which sits above this library).
 */
struct ArtifactKey
{
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    std::uint64_t scheduler = 0;

    friend bool operator==(const ArtifactKey &,
                           const ArtifactKey &) = default;
};

/** "chsa-<lo><hi>-<scheduler>.chsa", the canonical store filename. */
std::string artifactFileName(const ArtifactKey &key);

/** Why an artifact was rejected. */
enum class ArtifactStatus
{
    kOk,
    kIoError,       ///< cannot open/map/stat the file
    kBadMagic,      ///< not a CHSA file
    kBadVersion,    ///< a version this reader does not speak
    kTruncated,     ///< file shorter than the header declares
    kBadStructure,  ///< section table / meta / phase table inconsistent
    kBadChecksum,   ///< header or section digest mismatch
};

/** Stable lowercase name ("ok", "bad-checksum", ...). */
const char *artifactStatusName(ArtifactStatus status);

/** Status plus human-readable detail. */
struct ArtifactError
{
    ArtifactStatus status = ArtifactStatus::kOk;
    std::string detail;
};

/**
 * The 4-lane multiply-xor digest every CHSA checksum uses, folded over
 * kArtifactChunkBytes chunks. Deterministic for a given byte string;
 * the chunk folding lets verifiers hash chunks on several threads and
 * combine without changing the digest.
 */
std::uint64_t artifactHash(const void *data, std::size_t bytes);

/** Everything open() learns without touching the payload. */
struct ArtifactInfo
{
    ArtifactKey key;
    SchedConfig config;
    std::string scheduler;
    std::uint32_t rows = 0;
    std::uint32_t cols = 0;
    std::uint64_t nnz = 0;
    std::uint32_t phaseCount = 0;
    std::uint64_t payloadBytes = 0; ///< beat section size
    std::uint64_t fileBytes = 0;
    std::vector<ArtifactSectionEntry> sections; ///< for inspection
};

/**
 * Write @p schedule as a CHSA v1 artifact at @p path (temp file +
 * atomic rename). Returns false (with @p error filled) on an I/O
 * failure; never panics on one. Works for every schedule, including
 * migrationDepth > 1 (unlike the wire encoding).
 */
bool writeArtifactFile(const Schedule &schedule, const ArtifactKey &key,
                       const std::string &path,
                       ArtifactError *error = nullptr);

/**
 * Maps a CHSA artifact and materializes schedules whose beat storage
 * aliases the mapping. Move-only; the mapping itself is shared with
 * every Schedule load() hands out, so the reader may be destroyed
 * first.
 */
class ArtifactReader
{
  public:
    ArtifactReader() = default;
    ArtifactReader(ArtifactReader &&) = default;
    ArtifactReader &operator=(ArtifactReader &&) = default;

    /**
     * Map @p path and validate everything except the beat payload:
     * magic, version, truncation, header checksum, section table,
     * meta/phase-table checksums and structural consistency (counts,
     * bounds, alignment, config ranges). On failure the returned
     * reader is !ok() and @p error says why.
     */
    static ArtifactReader open(const std::string &path,
                               ArtifactError *error = nullptr);

    bool ok() const { return mapping_ != nullptr; }
    const ArtifactInfo &info() const { return info_; }

    /**
     * Verify the beat-payload digest on the calling thread; this
     * starts no thread. Idempotent: the verdict is computed once and
     * cached. This is the only load-path step that touches every
     * payload page.
     */
    bool payloadIntact(ArtifactError *error = nullptr) const;

    /**
     * Materialize the schedule. Beat storage aliases the mapping
     * (BeatList::aliased()), which stays alive for as long as any
     * returned Schedule (or copy of one) does. Requires a prior
     * successful payloadIntact() — loading unverified bytes is a
     * contract violation, not an error path.
     */
    Schedule load() const;

  private:
    struct Mapping;

    std::shared_ptr<const Mapping> mapping_;
    ArtifactInfo info_;
    const ArtifactPhase *phases_ = nullptr;  ///< into the mapping
    const std::uint64_t *beatCounts_ = nullptr; ///< phaseCount*channels
    const Beat *payload_ = nullptr;
    std::uint64_t payloadChecksum_ = 0; ///< expected beat-section digest
    // Payload verdict cache: 0 unknown, 1 intact, 2 corrupt.
    mutable std::uint8_t payloadVerdict_ = 0;
};

} // namespace sched
} // namespace chason

#endif // CHASON_SCHED_ARTIFACT_H_
