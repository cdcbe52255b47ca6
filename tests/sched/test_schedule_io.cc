/**
 * @file
 * Tests for schedule file I/O. A schedule reaches disk only as a CHSA
 * artifact keyed by core::artifactKey(scheduleKey) and comes back only
 * through core::loadArtifact. The round trip must preserve the
 * schedule slot for slot, leave it verifier-clean and simulating
 * identically, and a bad file must be rejected with a reason rather
 * than ending the process.
 */

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "arch/chason_accel.h"
#include "common/rng.h"
#include "core/schedule_cache.h"
#include "sched/analyzer.h"
#include "sched/artifact.h"
#include "sched/crhcs.h"
#include "sched/pe_aware.h"
#include "sched/row_based.h"
#include "sparse/generators.h"
#include "support/schedule_equal.h"
#include "verify/verifier.h"

namespace chason {
namespace sched {
namespace {

using testing_support::expectEqualSchedules;

std::string
tempPath(const char *name)
{
    return ::testing::TempDir() + "chason_schedule_io_" + name + ".chsa";
}

/** Schedule @p a with @p scheduler, save it under its key, load it back. */
std::optional<Schedule>
saveAndLoad(const Scheduler &scheduler, const sparse::CsrMatrix &a,
            const Schedule &original, const char *name)
{
    const core::ScheduleKey key = core::scheduleKey(scheduler, a);
    const std::string path = tempPath(name);
    ArtifactError error;
    EXPECT_TRUE(writeArtifactFile(original, core::artifactKey(key), path,
                                  &error))
        << error.detail;
    std::string why;
    std::optional<Schedule> restored = core::loadArtifact(path, key, why);
    EXPECT_TRUE(restored.has_value()) << why;
    return restored;
}

std::size_t
migratedSlots(const Schedule &schedule)
{
    std::size_t migrated = 0;
    for (const WindowSchedule &phase : schedule.phases) {
        for (const auto &ch : phase.channels) {
            for (std::size_t t = 0; t < ch.length(); ++t) {
                for (unsigned p = 0; p < schedule.config.pesPerGroup();
                     ++p) {
                    const Slot &slot = ch.beats[t].slots[p];
                    if (slot.valid && !slot.pvt)
                        ++migrated;
                }
            }
        }
    }
    return migrated;
}

// Save -> load -> verify for each scheduler family: the restored
// schedule must be slot-identical to the original AND pass the static
// verifier with completeness checked against the source matrix.
TEST(ScheduleIo, RoundTripVerifierCleanAllSchedulers)
{
    Rng rng(8);
    const sparse::CsrMatrix a = sparse::zipfRows(1200, 1200, 9000, 1.2, rng);

    SchedConfig serial;
    serial.migrationDepth = 0;
    std::vector<std::unique_ptr<Scheduler>> schedulers;
    schedulers.push_back(std::make_unique<RowBasedScheduler>(serial));
    schedulers.push_back(std::make_unique<PeAwareScheduler>(serial));
    schedulers.push_back(std::make_unique<CrhcsScheduler>(SchedConfig{}));

    for (const auto &scheduler : schedulers) {
        SCOPED_TRACE(scheduler->name());
        const Schedule original = scheduler->schedule(a);
        const std::optional<Schedule> restored =
            saveAndLoad(*scheduler, a, original, "all_schedulers");
        ASSERT_TRUE(restored.has_value());
        expectEqualSchedules(original, *restored);

        verify::VerifyOptions options;
        options.matrix = &a;
        const verify::VerifyResult result =
            verify::verifySchedule(*restored, options);
        EXPECT_TRUE(result.clean()) << result.summary();
        EXPECT_EQ(result.errors, 0u);
        EXPECT_EQ(result.warnings, 0u);
    }
}

TEST(ScheduleIo, RoundTripCrhcsWithMigratedElements)
{
    Rng rng(2);
    const sparse::CsrMatrix a = sparse::arrowBanded(800, 6, 0.3, 2, rng);
    const CrhcsScheduler scheduler{SchedConfig{}};
    const Schedule original = scheduler.schedule(a);
    // Confirm the sample actually contains migrated work.
    ASSERT_GT(migratedSlots(original), 0u);

    const std::optional<Schedule> restored =
        saveAndLoad(scheduler, a, original, "migrated");
    ASSERT_TRUE(restored.has_value());
    expectEqualSchedules(original, *restored);
    EXPECT_EQ(migratedSlots(*restored), migratedSlots(original));
}

// The file format carries migration deeper than the next channel,
// which the wire encoding cannot express.
TEST(ScheduleIo, DeepMigrationRoundTrips)
{
    Rng rng(7);
    const sparse::CsrMatrix a = sparse::zipfRows(64, 64, 500, 1.3, rng);
    SchedConfig cfg;
    cfg.channels = 8;
    cfg.migrationDepth = 2;
    const CrhcsScheduler scheduler(cfg);
    const Schedule original = scheduler.schedule(a);

    const std::optional<Schedule> restored =
        saveAndLoad(scheduler, a, original, "deep");
    ASSERT_TRUE(restored.has_value());
    expectEqualSchedules(original, *restored);
    validateSchedule(*restored, a);
}

TEST(ScheduleIo, RestoredScheduleSimulatesIdentically)
{
    Rng rng(3);
    const sparse::CsrMatrix a = sparse::arrowBanded(800, 6, 0.3, 2, rng);
    const std::vector<float> x = sparse::randomVector(a.cols(), rng);
    const arch::ArchConfig cfg;
    const CrhcsScheduler scheduler(cfg.sched);
    const Schedule original = scheduler.schedule(a);

    const std::optional<Schedule> restored =
        saveAndLoad(scheduler, a, original, "simulate");
    ASSERT_TRUE(restored.has_value());

    const arch::ChasonAccelerator accel(cfg);
    const arch::RunResult r1 = accel.run(original, x);
    const arch::RunResult r2 = accel.run(*restored, x);
    EXPECT_EQ(r1.y, r2.y); // bit-identical results
    EXPECT_EQ(r1.cycles.total(), r2.cycles.total());
    validateSchedule(*restored, a);
}

TEST(ScheduleIo, BadMagicRejected)
{
    Rng rng(4);
    const sparse::CsrMatrix a = sparse::arrowBanded(200, 4, 0.3, 2, rng);
    const PeAwareScheduler scheduler{SchedConfig{}};
    const std::string path = tempPath("bad_magic");
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        const std::string junk(4096, 'x');
        out.write(junk.data(), static_cast<std::streamsize>(junk.size()));
    }
    std::string why;
    EXPECT_FALSE(core::loadArtifact(path, core::scheduleKey(scheduler, a),
                                    why)
                     .has_value());
    EXPECT_NE(why.find("bad-magic"), std::string::npos) << why;
}

TEST(ScheduleIo, TruncationRejected)
{
    Rng rng(5);
    const sparse::CsrMatrix a = sparse::arrowBanded(800, 6, 0.3, 2, rng);
    const PeAwareScheduler scheduler{SchedConfig{}};
    const core::ScheduleKey key = core::scheduleKey(scheduler, a);
    const std::string path = tempPath("truncated");
    ASSERT_TRUE(writeArtifactFile(scheduler.schedule(a),
                                  core::artifactKey(key), path));
    std::filesystem::resize_file(path,
                                 std::filesystem::file_size(path) / 2);

    std::string why;
    EXPECT_FALSE(core::loadArtifact(path, key, why).has_value());
    EXPECT_NE(why.find("truncated"), std::string::npos) << why;
}

// A schedule saved for one matrix is not admitted for another.
TEST(ScheduleIo, ForeignKeyRejected)
{
    Rng rng(6);
    const sparse::CsrMatrix a = sparse::arrowBanded(400, 6, 0.3, 2, rng);
    const sparse::CsrMatrix b = sparse::arrowBanded(400, 6, 0.3, 2, rng);
    const PeAwareScheduler scheduler{SchedConfig{}};
    const std::string path = tempPath("foreign");
    ASSERT_TRUE(writeArtifactFile(
        scheduler.schedule(a),
        core::artifactKey(core::scheduleKey(scheduler, a)), path));

    std::string why;
    EXPECT_FALSE(core::loadArtifact(path, core::scheduleKey(scheduler, b),
                                    why)
                     .has_value());
    EXPECT_EQ(why, "foreign key");
}

} // namespace
} // namespace sched
} // namespace chason
