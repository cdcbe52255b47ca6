/**
 * @file
 * Tests for the CHSA on-disk schedule artifact: bit-exact round trip,
 * zero-copy aliasing (and detach-on-mutation), the chunk-folded digest,
 * and the admission gate's rejection of every corruption class —
 * wrong magic, wrong version, truncation, tampered header, tampered
 * payload, trailing garbage.
 */

#include "sched/artifact.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sched/crhcs.h"
#include "sched/pe_aware.h"
#include "sparse/generators.h"

namespace chason {
namespace sched {
namespace {

Schedule
sampleSchedule(std::uint64_t seed, bool migrated)
{
    Rng rng(seed);
    const sparse::CsrMatrix a = sparse::arrowBanded(800, 6, 0.3, 2, rng);
    SchedConfig cfg;
    cfg.migrationDepth = migrated ? 1 : 0;
    if (migrated)
        return CrhcsScheduler(cfg).schedule(a);
    return PeAwareScheduler(cfg).schedule(a);
}

std::string
tempPath(const char *name)
{
    return ::testing::TempDir() + "chason_artifact_" + name + ".chsa";
}

/** Write @p schedule and return the path; asserts success. */
std::string
writeSample(const Schedule &schedule, const char *name,
            const ArtifactKey &key = {0x11, 0x22, 0x33})
{
    const std::string path = tempPath(name);
    ArtifactError error;
    EXPECT_TRUE(writeArtifactFile(schedule, key, path, &error))
        << error.detail;
    return path;
}

void
flipByte(const std::string &path, std::uint64_t offset)
{
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&byte, 1);
    ASSERT_TRUE(f.good());
}

void
expectEqualSchedules(const Schedule &a, const Schedule &b)
{
    ASSERT_EQ(a.phases.size(), b.phases.size());
    EXPECT_EQ(a.rows, b.rows);
    EXPECT_EQ(a.cols, b.cols);
    EXPECT_EQ(a.nnz, b.nnz);
    EXPECT_EQ(a.scheduler, b.scheduler);
    EXPECT_EQ(a.config.channels, b.config.channels);
    EXPECT_EQ(a.config.rawDistance, b.config.rawDistance);
    EXPECT_EQ(a.config.windowCols, b.config.windowCols);
    EXPECT_EQ(a.config.migrationDepth, b.config.migrationDepth);
    for (std::size_t ph = 0; ph < a.phases.size(); ++ph) {
        const WindowSchedule &pa = a.phases[ph];
        const WindowSchedule &pb = b.phases[ph];
        EXPECT_EQ(pa.pass, pb.pass);
        EXPECT_EQ(pa.window, pb.window);
        EXPECT_EQ(pa.alignedBeats, pb.alignedBeats);
        ASSERT_EQ(pa.channels.size(), pb.channels.size());
        for (std::size_t ch = 0; ch < pa.channels.size(); ++ch) {
            ASSERT_EQ(pa.channels[ch].length(),
                      pb.channels[ch].length());
            const std::size_t bytes =
                pa.channels[ch].length() * sizeof(Beat);
            if (bytes == 0)
                continue;
            // Beat is trivially copyable and the writer serializes the
            // raw representation, so bitwise equality is the contract.
            EXPECT_EQ(0, std::memcmp(&pa.channels[ch].beats[0],
                                     &pb.channels[ch].beats[0], bytes));
        }
    }
}

TEST(ArtifactHash, DeterministicAndSensitive)
{
    std::vector<std::uint8_t> buf(4096);
    for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<std::uint8_t>(i * 37 + 11);

    const std::uint64_t h = artifactHash(buf.data(), buf.size());
    EXPECT_EQ(h, artifactHash(buf.data(), buf.size()));

    buf[1000] ^= 1;
    EXPECT_NE(h, artifactHash(buf.data(), buf.size()));
    buf[1000] ^= 1;
    EXPECT_EQ(h, artifactHash(buf.data(), buf.size()));

    // Length is part of the digest: a prefix must not collide.
    EXPECT_NE(artifactHash(buf.data(), buf.size()),
              artifactHash(buf.data(), buf.size() - 1));
    // The empty string has a stable, non-degenerate digest.
    EXPECT_EQ(artifactHash(nullptr, 0), artifactHash(nullptr, 0));
}

TEST(ArtifactHash, ChunkBoundarySizes)
{
    // Sizes straddling the 4 MiB chunk fold: the digest must be
    // well-defined and distinct across one-byte differences in length.
    std::vector<std::uint8_t> buf(kArtifactChunkBytes + 64);
    Rng rng(7);
    for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<std::uint8_t>(rng.next());

    std::uint64_t last = 0;
    for (std::size_t n : {kArtifactChunkBytes - 1, kArtifactChunkBytes,
                          kArtifactChunkBytes + 1,
                          kArtifactChunkBytes + 64}) {
        const std::uint64_t h = artifactHash(buf.data(), n);
        EXPECT_NE(h, last);
        last = h;
    }
}

TEST(ArtifactFile, CanonicalFileName)
{
    EXPECT_EQ(artifactFileName({1, 2, 3}),
              "chsa-0000000000000001"
              "0000000000000002-0000000000000003.chsa");
    EXPECT_EQ(artifactFileName({0xdeadbeefcafef00dull, 0, 0xffull}),
              "chsa-deadbeefcafef00d"
              "0000000000000000-00000000000000ff.chsa");
}

TEST(ArtifactFile, RoundTripIsBitExactAndZeroCopy)
{
    for (const bool migrated : {false, true}) {
        const Schedule original = sampleSchedule(1, migrated);
        const ArtifactKey key{0xabc, 0xdef, 0x123};
        const std::string path = writeSample(
            original, migrated ? "rt_migrated" : "rt_plain", key);

        ArtifactError error;
        const ArtifactReader reader = ArtifactReader::open(path, &error);
        ASSERT_TRUE(reader.ok()) << error.detail;
        EXPECT_TRUE(reader.info().key == key);
        EXPECT_EQ(reader.info().scheduler, original.scheduler);
        EXPECT_EQ(reader.info().rows, original.rows);
        EXPECT_EQ(reader.info().nnz, original.nnz);
        ASSERT_TRUE(reader.payloadIntact(&error)) << error.detail;

        const Schedule loaded = reader.load();
        expectEqualSchedules(original, loaded);

        // Zero copy: every non-empty channel aliases the mapping.
        for (const WindowSchedule &phase : loaded.phases)
            for (const ChannelWindowSchedule &ch : phase.channels)
                if (ch.length() > 0)
                    EXPECT_TRUE(ch.beats.aliased());
        std::filesystem::remove(path);
    }
}

TEST(ArtifactFile, MappingOutlivesReader)
{
    const Schedule original = sampleSchedule(2, true);
    const std::string path = writeSample(original, "outlive");

    Schedule loaded;
    {
        ArtifactError error;
        const ArtifactReader reader = ArtifactReader::open(path, &error);
        ASSERT_TRUE(reader.ok()) << error.detail;
        ASSERT_TRUE(reader.payloadIntact(&error)) << error.detail;
        loaded = reader.load();
    } // reader destroyed; the shared mapping must keep the beats alive
    std::filesystem::remove(path); // and the unlinked file mapped

    expectEqualSchedules(original, loaded);
}

TEST(ArtifactFile, MutationDetachesFromMapping)
{
    const Schedule original = sampleSchedule(3, true);
    const std::string path = writeSample(original, "detach");

    ArtifactError error;
    const ArtifactReader reader = ArtifactReader::open(path, &error);
    ASSERT_TRUE(reader.ok()) << error.detail;
    ASSERT_TRUE(reader.payloadIntact(&error)) << error.detail;
    Schedule loaded = reader.load();

    WindowSchedule *phase = nullptr;
    for (WindowSchedule &p : loaded.phases)
        for (ChannelWindowSchedule &ch : p.channels)
            if (ch.length() > 0 && phase == nullptr)
                phase = &p;
    ASSERT_NE(phase, nullptr);
    for (ChannelWindowSchedule &ch : phase->channels) {
        if (ch.length() == 0)
            continue;
        ASSERT_TRUE(ch.beats.aliased());
        ch.beats[0].slots[0].valid = false; // non-const access detaches
        EXPECT_FALSE(ch.beats.aliased());
        break;
    }

    // A second load still sees the pristine bytes.
    const Schedule again = reader.load();
    expectEqualSchedules(original, again);
    std::filesystem::remove(path);
}

TEST(ArtifactFile, PayloadDigestSpansChunks)
{
    // One payload inside a single 4 MiB chunk and one spanning several:
    // the reader's digest over the contiguous mapping must equal the
    // writer's streamed one, and a byte flipped in the last chunk must
    // still be caught.
    Rng rng(4);
    const Schedule schedules[] = {
        sampleSchedule(4, true),
        PeAwareScheduler(SchedConfig{}).schedule(
            sparse::rmat(15, std::size_t{1} << 19, rng)),
    };
    std::uint64_t largest = 0;
    for (const Schedule &schedule : schedules) {
        const std::string path = writeSample(schedule, "chunks");
        ArtifactError error;
        {
            const ArtifactReader reader =
                ArtifactReader::open(path, &error);
            ASSERT_TRUE(reader.ok()) << error.detail;
            EXPECT_TRUE(reader.payloadIntact(&error)) << error.detail;
            largest = std::max(largest, reader.info().payloadBytes);
        }
        flipByte(path, std::filesystem::file_size(path) - 17);
        const ArtifactReader reader = ArtifactReader::open(path, &error);
        ASSERT_TRUE(reader.ok()) << error.detail;
        EXPECT_FALSE(reader.payloadIntact(&error));
        EXPECT_EQ(error.status, ArtifactStatus::kBadChecksum);
        std::filesystem::remove(path);
    }
    EXPECT_GT(largest, 2 * kArtifactChunkBytes);
}

TEST(ArtifactReject, NotAnArtifact)
{
    const std::string path = tempPath("junk");
    {
        std::ofstream f(path, std::ios::binary);
        std::vector<char> junk(256, 'x');
        f.write(junk.data(),
                static_cast<std::streamsize>(junk.size()));
    }
    ArtifactError error;
    EXPECT_FALSE(ArtifactReader::open(path, &error).ok());
    EXPECT_EQ(error.status, ArtifactStatus::kBadMagic);
    std::filesystem::remove(path);
}

TEST(ArtifactReject, MissingFileIsIoError)
{
    ArtifactError error;
    EXPECT_FALSE(
        ArtifactReader::open(tempPath("never_written"), &error).ok());
    EXPECT_EQ(error.status, ArtifactStatus::kIoError);
}

TEST(ArtifactReject, WrongVersion)
{
    const Schedule original = sampleSchedule(5, false);
    const std::string path = writeSample(original, "version");
    flipByte(path, 8); // ArtifactHeader::version (checked before digest)
    ArtifactError error;
    EXPECT_FALSE(ArtifactReader::open(path, &error).ok());
    EXPECT_EQ(error.status, ArtifactStatus::kBadVersion);
    std::filesystem::remove(path);
}

TEST(ArtifactReject, Truncation)
{
    const Schedule original = sampleSchedule(6, false);
    const std::string path = writeSample(original, "trunc");
    const std::uint64_t size = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, size - 1);

    ArtifactError error;
    EXPECT_FALSE(ArtifactReader::open(path, &error).ok());
    EXPECT_EQ(error.status, ArtifactStatus::kTruncated);

    std::filesystem::resize_file(path, 32); // shorter than the header
    EXPECT_FALSE(ArtifactReader::open(path, &error).ok());
    EXPECT_EQ(error.status, ArtifactStatus::kTruncated);
    std::filesystem::remove(path);
}

TEST(ArtifactReject, TrailingGarbage)
{
    const Schedule original = sampleSchedule(7, false);
    const std::string path = writeSample(original, "trailing");
    {
        std::ofstream f(path, std::ios::binary | std::ios::app);
        f.put('!');
    }
    ArtifactError error;
    EXPECT_FALSE(ArtifactReader::open(path, &error).ok());
    EXPECT_EQ(error.status, ArtifactStatus::kBadStructure);
    std::filesystem::remove(path);
}

TEST(ArtifactReject, TamperedHeaderField)
{
    const Schedule original = sampleSchedule(8, false);
    const std::string path = writeSample(original, "header");
    flipByte(path, 24); // keyLo: covered only by the header digest
    ArtifactError error;
    EXPECT_FALSE(ArtifactReader::open(path, &error).ok());
    EXPECT_EQ(error.status, ArtifactStatus::kBadChecksum);
    std::filesystem::remove(path);
}

TEST(ArtifactReject, TamperedMeta)
{
    const Schedule original = sampleSchedule(9, false);
    const std::string path = writeSample(original, "meta");
    // Scheduler name bytes, deep inside the meta section.
    flipByte(path, sizeof(ArtifactHeader) +
                       3 * sizeof(ArtifactSectionEntry) + 60);
    ArtifactError error;
    EXPECT_FALSE(ArtifactReader::open(path, &error).ok());
    EXPECT_EQ(error.status, ArtifactStatus::kBadChecksum);
    std::filesystem::remove(path);
}

TEST(ArtifactReject, TamperedPayloadCaughtByDeepCheck)
{
    const Schedule original = sampleSchedule(10, true);
    const std::string path = writeSample(original, "payload");
    const std::uint64_t size = std::filesystem::file_size(path);
    flipByte(path, size - 17); // inside the beat payload

    ArtifactError error;
    const ArtifactReader reader = ArtifactReader::open(path, &error);
    // Header and section tables are intact: open() succeeds...
    ASSERT_TRUE(reader.ok()) << error.detail;
    // ...and the payload digest is what catches it.
    EXPECT_FALSE(reader.payloadIntact(&error));
    EXPECT_EQ(error.status, ArtifactStatus::kBadChecksum);
    // The verdict is cached: asking again must not flip it.
    EXPECT_FALSE(reader.payloadIntact(&error));
    std::filesystem::remove(path);
}

TEST(ArtifactReject, StatusNamesAreStable)
{
    EXPECT_STREQ(artifactStatusName(ArtifactStatus::kOk), "ok");
    EXPECT_STREQ(artifactStatusName(ArtifactStatus::kIoError),
                 "io-error");
    EXPECT_STREQ(artifactStatusName(ArtifactStatus::kBadMagic),
                 "bad-magic");
    EXPECT_STREQ(artifactStatusName(ArtifactStatus::kBadVersion),
                 "bad-version");
    EXPECT_STREQ(artifactStatusName(ArtifactStatus::kTruncated),
                 "truncated");
    EXPECT_STREQ(artifactStatusName(ArtifactStatus::kBadStructure),
                 "bad-structure");
    EXPECT_STREQ(artifactStatusName(ArtifactStatus::kBadChecksum),
                 "bad-checksum");
}

} // namespace
} // namespace sched
} // namespace chason
