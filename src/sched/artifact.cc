/**
 * @file
 * CHSA artifact writer/reader implementation.
 */

#include "sched/artifact.h"

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/hash.h"
#include "common/logging.h"

#if defined(__unix__) || defined(__APPLE__)
#define CHASON_ARTIFACT_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define CHASON_ARTIFACT_MMAP 0
#endif

namespace chason {
namespace sched {

// The format is defined little-endian and the payload is aliased, not
// swapped; a big-endian port would need a byte-swapping load path.
static_assert(std::endian::native == std::endian::little,
              "CHSA artifacts are little-endian");

namespace {

/**
 * Streaming hasher for the writer: buffers bytes into whole chunks so
 * scattered per-channel beat streams produce the identical digest the
 * reader computes over the contiguous mapped payload.
 */
class StreamHasher
{
  public:
    void
    update(const void *data, std::size_t n)
    {
        const std::byte *p = static_cast<const std::byte *>(data);
        while (n > 0) {
            if (buf_.empty() && n >= kChunk) {
                // Fast path: a whole chunk straight from the source.
                fold_.add(common::chunkHash(p, kChunk), kChunk);
                p += kChunk;
                n -= kChunk;
                continue;
            }
            const std::size_t want = kChunk - buf_.size();
            const std::size_t take = n < want ? n : want;
            buf_.insert(buf_.end(), p, p + take);
            p += take;
            n -= take;
            if (buf_.size() == kChunk) {
                fold_.add(common::chunkHash(buf_.data(), kChunk), kChunk);
                buf_.clear();
            }
        }
    }

    std::uint64_t
    finish()
    {
        if (!buf_.empty()) {
            fold_.add(common::chunkHash(buf_.data(), buf_.size()),
                      buf_.size());
            buf_.clear();
        }
        return fold_.finish();
    }

  private:
    static constexpr std::size_t kChunk = common::kHashChunkBytes;

    std::vector<std::byte> buf_;
    common::ChunkFold fold_;
};

bool
fail(ArtifactError *error, ArtifactStatus status, std::string detail)
{
    if (error != nullptr) {
        error->status = status;
        error->detail = std::move(detail);
    }
    return false;
}

} // namespace

std::string
artifactFileName(const ArtifactKey &key)
{
    char buf[80];
    std::snprintf(buf, sizeof(buf),
                  "chsa-%016" PRIx64 "%016" PRIx64 "-%016" PRIx64 ".chsa",
                  key.lo, key.hi, key.scheduler);
    return buf;
}

const char *
artifactStatusName(ArtifactStatus status)
{
    switch (status) {
    case ArtifactStatus::kOk:
        return "ok";
    case ArtifactStatus::kIoError:
        return "io-error";
    case ArtifactStatus::kBadMagic:
        return "bad-magic";
    case ArtifactStatus::kBadVersion:
        return "bad-version";
    case ArtifactStatus::kTruncated:
        return "truncated";
    case ArtifactStatus::kBadStructure:
        return "bad-structure";
    case ArtifactStatus::kBadChecksum:
        return "bad-checksum";
    }
    return "unknown";
}

// ---------------------------------------------------------------------------
// Writer

bool
writeArtifactFile(const Schedule &schedule, const ArtifactKey &key,
                  const std::string &path, ArtifactError *error)
{
    const SchedConfig &cfg = schedule.config;
    const std::uint32_t channels = cfg.channels;
    const std::uint32_t phase_count =
        static_cast<std::uint32_t>(schedule.phases.size());

    // Meta section.
    ArtifactMeta meta;
    meta.nnz = schedule.nnz;
    meta.channels = channels;
    meta.precisionBits = cfg.precision == Precision::Fp32 ? 32 : 64;
    meta.pesOverride = cfg.pesOverride;
    meta.rawDistance = cfg.rawDistance;
    meta.windowCols = cfg.windowCols;
    meta.rowsPerLanePerPass = cfg.rowsPerLanePerPass;
    meta.migrationDepth = cfg.migrationDepth;
    meta.rows = schedule.rows;
    meta.cols = schedule.cols;
    meta.phaseCount = phase_count;
    chason_assert(schedule.scheduler.size() < sizeof(meta.schedulerName),
                  "scheduler name too long for the artifact meta");
    meta.schedulerNameLen =
        static_cast<std::uint32_t>(schedule.scheduler.size());
    std::memcpy(meta.schedulerName, schedule.scheduler.data(),
                schedule.scheduler.size());

    // Phase section: records then the per-(phase, channel) beat counts.
    std::vector<ArtifactPhase> phases(phase_count);
    std::vector<std::uint64_t> counts(
        static_cast<std::size_t>(phase_count) * channels);
    std::uint64_t payload_beats = 0;
    for (std::uint32_t p = 0; p < phase_count; ++p) {
        const WindowSchedule &ws = schedule.phases[p];
        chason_assert(ws.channels.size() == channels,
                      "schedule phase %u has %zu channels, config says %u",
                      p, ws.channels.size(), channels);
        phases[p].pass = ws.pass;
        phases[p].window = ws.window;
        phases[p].alignedBeats = ws.alignedBeats;
        for (std::uint32_t ch = 0; ch < channels; ++ch) {
            const std::uint64_t n = ws.channels[ch].beats.size();
            counts[static_cast<std::size_t>(p) * channels + ch] = n;
            payload_beats += n;
        }
    }
    const std::uint64_t payload_bytes = payload_beats * sizeof(Beat);

    // Layout.
    ArtifactHeader header;
    header.headerBytes = sizeof(ArtifactHeader);
    header.keyLo = key.lo;
    header.keyHi = key.hi;
    header.keyScheduler = key.scheduler;
    header.sectionCount = 3;
    header.sectionEntryBytes = sizeof(ArtifactSectionEntry);

    const std::uint64_t table_off = sizeof(ArtifactHeader);
    const std::uint64_t meta_off =
        table_off + 3 * sizeof(ArtifactSectionEntry);
    const std::uint64_t phase_off = meta_off + sizeof(ArtifactMeta);
    const std::uint64_t phase_bytes =
        phase_count * sizeof(ArtifactPhase) +
        counts.size() * sizeof(std::uint64_t);
    std::uint64_t payload_off = phase_off + phase_bytes;
    payload_off = (payload_off + kArtifactPayloadAlign - 1) &
        ~static_cast<std::uint64_t>(kArtifactPayloadAlign - 1);
    header.fileBytes = payload_off + payload_bytes;

    // Section digests. The payload digest streams over the scattered
    // per-channel beat arrays in exactly the order they land on disk.
    ArtifactSectionEntry sections[3];
    sections[0] = {static_cast<std::uint32_t>(ArtifactSection::kMeta), 0,
                   meta_off, sizeof(ArtifactMeta),
                   common::artifactHash(&meta, sizeof(meta))};
    StreamHasher phase_hash;
    phase_hash.update(phases.data(),
                      phases.size() * sizeof(ArtifactPhase));
    phase_hash.update(counts.data(),
                      counts.size() * sizeof(std::uint64_t));
    sections[1] = {static_cast<std::uint32_t>(ArtifactSection::kPhases),
                   0, phase_off, phase_bytes, phase_hash.finish()};
    StreamHasher payload_hash;
    for (const WindowSchedule &ws : schedule.phases) {
        for (const ChannelWindowSchedule &ch : ws.channels) {
            payload_hash.update(ch.beats.data(),
                                ch.beats.size() * sizeof(Beat));
        }
    }
    sections[2] = {static_cast<std::uint32_t>(ArtifactSection::kBeats), 0,
                   payload_off, payload_bytes, payload_hash.finish()};

    header.headerChecksum = 0;
    header.headerChecksum = common::artifactHash(&header, sizeof(header));

    // Temp file + rename: concurrent writers of the same key race to an
    // identical result, and a crash never leaves a torn file behind.
    const std::string tmp = path + ".tmp";
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
        return fail(error, ArtifactStatus::kIoError,
                    "cannot create '" + tmp + "'");
    }
    const auto put = [&out](const void *data, std::size_t n) {
        out.write(static_cast<const char *>(data),
                  static_cast<std::streamsize>(n));
    };
    put(&header, sizeof(header));
    put(sections, sizeof(sections));
    put(&meta, sizeof(meta));
    put(phases.data(), phases.size() * sizeof(ArtifactPhase));
    put(counts.data(), counts.size() * sizeof(std::uint64_t));
    const char zeros[kArtifactPayloadAlign] = {};
    put(zeros, payload_off - (phase_off + phase_bytes));
    for (const WindowSchedule &ws : schedule.phases) {
        for (const ChannelWindowSchedule &ch : ws.channels)
            put(ch.beats.data(), ch.beats.size() * sizeof(Beat));
    }
    out.flush();
    if (!out) {
        out.close();
        std::remove(tmp.c_str());
        return fail(error, ArtifactStatus::kIoError,
                    "write failed for '" + tmp + "'");
    }
    out.close();
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return fail(error, ArtifactStatus::kIoError,
                    "cannot rename '" + tmp + "' to '" + path + "'");
    }
    return true;
}

// ---------------------------------------------------------------------------
// Reader

struct ArtifactReader::Mapping
{
    const std::byte *data = nullptr;
    std::size_t bytes = 0;
#if CHASON_ARTIFACT_MMAP
    void *mapBase = nullptr;
    std::size_t mapBytes = 0;
#endif
    std::vector<std::byte> fallback;

    ~Mapping()
    {
#if CHASON_ARTIFACT_MMAP
        if (mapBase != nullptr)
            ::munmap(mapBase, mapBytes);
#endif
    }
};

ArtifactReader
ArtifactReader::open(const std::string &path, ArtifactError *error)
{
    ArtifactReader reader;
    if (error != nullptr)
        *error = {};

    auto mapping = std::make_shared<Mapping>();
#if CHASON_ARTIFACT_MMAP
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        fail(error, ArtifactStatus::kIoError,
             "cannot open '" + path + "'");
        return reader;
    }
    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
        ::close(fd);
        fail(error, ArtifactStatus::kIoError,
             "cannot stat '" + path + "'");
        return reader;
    }
    mapping->bytes = static_cast<std::size_t>(st.st_size);
    if (mapping->bytes > 0) {
        void *base = ::mmap(nullptr, mapping->bytes, PROT_READ,
                            MAP_PRIVATE, fd, 0);
        ::close(fd);
        if (base == MAP_FAILED) {
            fail(error, ArtifactStatus::kIoError,
                 "cannot mmap '" + path + "'");
            return reader;
        }
        mapping->mapBase = base;
        mapping->mapBytes = mapping->bytes;
        mapping->data = static_cast<const std::byte *>(base);
    } else {
        ::close(fd);
    }
#else
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) {
        fail(error, ArtifactStatus::kIoError,
             "cannot open '" + path + "'");
        return reader;
    }
    const std::streamoff size = in.tellg();
    in.seekg(0);
    mapping->fallback.resize(static_cast<std::size_t>(size));
    in.read(reinterpret_cast<char *>(mapping->fallback.data()), size);
    if (!in) {
        fail(error, ArtifactStatus::kIoError,
             "cannot read '" + path + "'");
        return reader;
    }
    mapping->data = mapping->fallback.data();
    mapping->bytes = mapping->fallback.size();
#endif

    // chason-lint: begin-mmap-region (everything below reads bytes the
    // kernel may have mapped from a file another process can truncate
    // or corrupt: every typed view must be re-checked before the cast)
    const std::byte *base = mapping->data;
    const std::uint64_t size = mapping->bytes;

    // Header.
    if (size < sizeof(ArtifactHeader)) {
        fail(error, ArtifactStatus::kTruncated,
             "file smaller than the CHSA header");
        return reader;
    }
    ArtifactHeader header;
    std::memcpy(&header, base, sizeof(header));
    if (header.magic != kArtifactMagic) {
        fail(error, ArtifactStatus::kBadMagic, "not a CHSA artifact");
        return reader;
    }
    if (header.version != kArtifactVersion) {
        fail(error, ArtifactStatus::kBadVersion,
             "artifact version " + std::to_string(header.version) +
                 ", reader speaks " + std::to_string(kArtifactVersion));
        return reader;
    }
    if (header.headerBytes != sizeof(ArtifactHeader) ||
        header.sectionEntryBytes != sizeof(ArtifactSectionEntry) ||
        header.sectionCount != 3) {
        fail(error, ArtifactStatus::kBadStructure,
             "header geometry does not match CHSA");
        return reader;
    }
    if (size < header.fileBytes) {
        fail(error, ArtifactStatus::kTruncated,
             "file is " + std::to_string(size) + " bytes, header "
                 "declares " + std::to_string(header.fileBytes));
        return reader;
    }
    if (size > header.fileBytes) {
        fail(error, ArtifactStatus::kBadStructure,
             "trailing bytes after the declared end of file");
        return reader;
    }
    ArtifactHeader unsummed = header;
    unsummed.headerChecksum = 0;
    if (common::artifactHash(&unsummed, sizeof(unsummed)) !=
        header.headerChecksum) {
        fail(error, ArtifactStatus::kBadChecksum,
             "header checksum mismatch");
        return reader;
    }

    // Section table.
    const std::uint64_t table_end = sizeof(ArtifactHeader) +
        std::uint64_t{3} * sizeof(ArtifactSectionEntry);
    ArtifactSectionEntry entries[3];
    std::memcpy(entries, base + sizeof(ArtifactHeader), sizeof(entries));
    const ArtifactSectionEntry *meta_sec = nullptr;
    const ArtifactSectionEntry *phase_sec = nullptr;
    const ArtifactSectionEntry *beat_sec = nullptr;
    for (const ArtifactSectionEntry &e : entries) {
        if (e.offset < table_end || e.offset > header.fileBytes ||
            e.bytes > header.fileBytes - e.offset) {
            fail(error, ArtifactStatus::kBadStructure,
                 "section extends past the end of file");
            return reader;
        }
        switch (static_cast<ArtifactSection>(e.kind)) {
        case ArtifactSection::kMeta:
            meta_sec = &e;
            break;
        case ArtifactSection::kPhases:
            phase_sec = &e;
            break;
        case ArtifactSection::kBeats:
            beat_sec = &e;
            break;
        default:
            fail(error, ArtifactStatus::kBadStructure,
                 "unknown section kind " + std::to_string(e.kind));
            return reader;
        }
    }
    if (meta_sec == nullptr || phase_sec == nullptr ||
        beat_sec == nullptr) {
        fail(error, ArtifactStatus::kBadStructure,
             "missing meta/phase/beat section");
        return reader;
    }

    // Meta section.
    if (meta_sec->bytes != sizeof(ArtifactMeta) ||
        meta_sec->offset % alignof(ArtifactMeta) != 0) {
        fail(error, ArtifactStatus::kBadStructure,
             "meta section has the wrong size or alignment");
        return reader;
    }
    if (common::artifactHash(base + meta_sec->offset, meta_sec->bytes) !=
        meta_sec->checksum) {
        fail(error, ArtifactStatus::kBadChecksum,
             "meta section checksum mismatch");
        return reader;
    }
    ArtifactMeta meta;
    std::memcpy(&meta, base + meta_sec->offset, sizeof(meta));
    // Range checks mirror SchedConfig::validate() without its panics: a
    // corrupt artifact must be rejected, not crash the process.
    const unsigned pes = meta.pesOverride != 0
        ? meta.pesOverride
        : (meta.precisionBits == 32 ? 8u : 5u);
    if (meta.channels < 1 || meta.channels > 4096 ||
        (meta.precisionBits != 32 && meta.precisionBits != 64) ||
        pes < 1 || pes > kMaxPesPerGroup || meta.rawDistance < 1 ||
        meta.windowCols < 1 || meta.rowsPerLanePerPass < 1 ||
        meta.migrationDepth >= meta.channels ||
        meta.schedulerNameLen >= sizeof(meta.schedulerName) ||
        meta.phaseCount > (1u << 28)) {
        fail(error, ArtifactStatus::kBadStructure,
             "meta section carries an illegal configuration");
        return reader;
    }

    // Phase section.
    const std::uint64_t cell_count =
        std::uint64_t{meta.phaseCount} * meta.channels;
    const std::uint64_t want_phase_bytes =
        std::uint64_t{meta.phaseCount} * sizeof(ArtifactPhase) +
        cell_count * sizeof(std::uint64_t);
    if (phase_sec->bytes != want_phase_bytes ||
        phase_sec->offset % alignof(ArtifactPhase) != 0) {
        fail(error, ArtifactStatus::kBadStructure,
             "phase section size disagrees with the meta counts");
        return reader;
    }
    if (common::artifactHash(base + phase_sec->offset, phase_sec->bytes) !=
        phase_sec->checksum) {
        fail(error, ArtifactStatus::kBadChecksum,
             "phase section checksum mismatch");
        return reader;
    }
    // The section-table loop proved these bounds already; re-assert
    // them at the cast site so the typed views can never outlive a
    // refactor of the checks above.
    chason_assert(phase_sec->offset + phase_sec->bytes <= size,
                  "phase section bounds re-checked before typed view");
    const ArtifactPhase *phases =
        reinterpret_cast<const ArtifactPhase *>(base + phase_sec->offset);
    const std::uint64_t *counts = reinterpret_cast<const std::uint64_t *>(
        base + phase_sec->offset +
        std::uint64_t{meta.phaseCount} * sizeof(ArtifactPhase));

    // Beat section: counts must tile it exactly.
    if (beat_sec->offset % kArtifactPayloadAlign != 0) {
        fail(error, ArtifactStatus::kBadStructure,
             "beat payload is not 64-byte aligned");
        return reader;
    }
    const std::uint64_t max_beats = beat_sec->bytes / sizeof(Beat);
    std::uint64_t total_beats = 0;
    for (std::uint64_t c = 0; c < cell_count; ++c) {
        if (counts[c] > max_beats || total_beats > max_beats - counts[c]) {
            fail(error, ArtifactStatus::kBadStructure,
                 "beat counts overflow the payload section");
            return reader;
        }
        total_beats += counts[c];
    }
    if (total_beats * sizeof(Beat) != beat_sec->bytes) {
        fail(error, ArtifactStatus::kBadStructure,
             "beat counts do not tile the payload section");
        return reader;
    }
    for (std::uint32_t p = 0; p < meta.phaseCount; ++p) {
        for (std::uint32_t ch = 0; ch < meta.channels; ++ch) {
            if (counts[std::uint64_t{p} * meta.channels + ch] >
                phases[p].alignedBeats) {
                fail(error, ArtifactStatus::kBadStructure,
                     "phase shorter than one of its channel streams");
                return reader;
            }
        }
    }

    // Validated: publish the typed views.
    reader.info_.key = {header.keyLo, header.keyHi, header.keyScheduler};
    SchedConfig &cfg = reader.info_.config;
    cfg.channels = meta.channels;
    cfg.precision =
        meta.precisionBits == 32 ? Precision::Fp32 : Precision::Fp64;
    cfg.pesOverride = meta.pesOverride;
    cfg.rawDistance = meta.rawDistance;
    cfg.windowCols = meta.windowCols;
    cfg.rowsPerLanePerPass = meta.rowsPerLanePerPass;
    cfg.migrationDepth = meta.migrationDepth;
    reader.info_.scheduler.assign(meta.schedulerName,
                                  meta.schedulerNameLen);
    reader.info_.rows = meta.rows;
    reader.info_.cols = meta.cols;
    reader.info_.nnz = meta.nnz;
    reader.info_.phaseCount = meta.phaseCount;
    reader.info_.payloadBytes = beat_sec->bytes;
    reader.info_.fileBytes = header.fileBytes;
    reader.info_.sections.assign(entries, entries + 3);
    reader.phases_ = phases;
    reader.beatCounts_ = counts;
    chason_assert(beat_sec->offset + beat_sec->bytes <= size,
                  "beat section bounds re-checked before typed view");
    reader.payload_ =
        reinterpret_cast<const Beat *>(base + beat_sec->offset);
    reader.payloadChecksum_ = beat_sec->checksum;
    reader.mapping_ = std::move(mapping);
    // chason-lint: end-mmap-region
    return reader;
}

bool
ArtifactReader::payloadIntact(ArtifactError *error) const
{
    // chason-lint: begin-mmap-region (payload_ points into the mapped
    // file; the hash sweep below walks all of it)
    chason_assert(ok(), "payloadIntact() on a failed reader");
    if (payloadVerdict_ == 0) {
        const std::uint64_t digest = common::artifactHash(
            reinterpret_cast<const std::byte *>(payload_),
            static_cast<std::size_t>(info_.payloadBytes));
        payloadVerdict_ = digest == payloadChecksum_ ? 1 : 2;
    }
    // chason-lint: end-mmap-region
    if (payloadVerdict_ == 1)
        return true;
    return fail(error, ArtifactStatus::kBadChecksum,
                "beat payload checksum mismatch") ||
        false;
}

Schedule
ArtifactReader::load() const
{
    chason_assert(ok(), "load() on a failed reader");
    chason_assert(payloadVerdict_ == 1,
                  "load() requires a prior successful payloadIntact()");

    Schedule schedule;
    schedule.config = info_.config;
    schedule.scheduler = info_.scheduler;
    schedule.rows = info_.rows;
    schedule.cols = info_.cols;
    schedule.nnz = static_cast<std::size_t>(info_.nnz);
    schedule.phases.reserve(info_.phaseCount);

    const std::uint32_t channels = info_.config.channels;
    const Beat *cursor = payload_;
    for (std::uint32_t p = 0; p < info_.phaseCount; ++p) {
        WindowSchedule ws;
        ws.pass = phases_[p].pass;
        ws.window = phases_[p].window;
        ws.alignedBeats =
            static_cast<std::size_t>(phases_[p].alignedBeats);
        ws.channels.resize(channels);
        for (std::uint32_t ch = 0; ch < channels; ++ch) {
            const std::uint64_t n =
                beatCounts_[std::uint64_t{p} * channels + ch];
            ws.channels[ch].beats = BeatList::aliasing(
                cursor, static_cast<std::size_t>(n), mapping_);
            cursor += n;
        }
        schedule.phases.push_back(std::move(ws));
    }
    return schedule;
}

} // namespace sched
} // namespace chason
