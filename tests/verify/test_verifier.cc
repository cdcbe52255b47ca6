/**
 * @file
 * Tests for the static schedule verifier: clean schedules pass, each
 * injected defect class is flagged under its own CHV rule with a
 * populated schedule location, and the reporting knobs (per-rule cap,
 * matrix-less mode) behave as documented.
 */

#include "verify/verifier.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "sched/crhcs.h"
#include "sched/pe_aware.h"
#include "sched/row_based.h"
#include "sparse/generators.h"
#include "verify/mutate.h"
#include "verify/rules.h"

namespace chason {
namespace verify {
namespace {

sparse::CsrMatrix
sampleMatrix(std::uint64_t seed)
{
    Rng rng(seed);
    return sparse::zipfRows(1500, 1500, 12000, 1.25, rng);
}

bool
hasRule(const VerifyResult &result, const char *ruleId)
{
    return std::any_of(result.diagnostics.begin(),
                       result.diagnostics.end(),
                       [ruleId](const Diagnostic &d) {
                           return d.ruleId == ruleId;
                       });
}

TEST(Verifier, AllSchedulersProduceCleanSchedules)
{
    const sparse::CsrMatrix a = sampleMatrix(1);
    sched::SchedConfig serial;
    serial.migrationDepth = 0;

    const sched::Schedule schedules[] = {
        sched::RowBasedScheduler(serial).schedule(a),
        sched::PeAwareScheduler(serial).schedule(a),
        sched::CrhcsScheduler(sched::SchedConfig{}).schedule(a),
    };
    for (const sched::Schedule &sch : schedules) {
        SCOPED_TRACE(sch.scheduler);
        VerifyOptions options;
        options.matrix = &a;
        const VerifyResult result = verifySchedule(sch, options);
        EXPECT_TRUE(result.clean()) << result.summary();
        EXPECT_EQ(result.warnings, 0u);
        EXPECT_EQ(result.checkedSlots, a.nnz());
        EXPECT_EQ(result.firstError(), nullptr);
    }
}

TEST(Verifier, EachCorruptionFlagsItsOwnRule)
{
    const sparse::CsrMatrix a = sampleMatrix(2);
    const sched::Schedule clean =
        sched::CrhcsScheduler(sched::SchedConfig{}).schedule(a);

    const Corruption kinds[] = {
        Corruption::kRawDistance,
        Corruption::kDuplicateElement,
        Corruption::kDropElement,
        Corruption::kValueTamper,
    };
    for (Corruption kind : kinds) {
        SCOPED_TRACE(corruptionName(kind));
        sched::Schedule corrupted = clean;
        ASSERT_TRUE(corruptSchedule(corrupted, kind));

        VerifyOptions options;
        options.matrix = &a;
        const VerifyResult result = verifySchedule(corrupted, options);
        EXPECT_FALSE(result.clean());
        EXPECT_TRUE(hasRule(result, expectedRule(kind)))
            << "expected " << expectedRule(kind) << ", got: "
            << result.summary();
    }
}

TEST(Verifier, DiagnosticsCarryScheduleCoordinates)
{
    const sparse::CsrMatrix a = sampleMatrix(3);
    sched::Schedule sch =
        sched::CrhcsScheduler(sched::SchedConfig{}).schedule(a);
    ASSERT_TRUE(corruptSchedule(sch, Corruption::kRawDistance));

    VerifyOptions options;
    options.matrix = &a;
    const VerifyResult result = verifySchedule(sch, options);
    ASSERT_FALSE(result.clean());
    const Diagnostic *error = result.firstError();
    ASSERT_NE(error, nullptr);
    EXPECT_EQ(error->ruleId, rule::kRawHazard);
    EXPECT_GE(error->loc.phase, 0);
    EXPECT_GE(error->loc.channel, 0);
    EXPECT_GE(error->loc.beat, 0);
    EXPECT_GE(error->loc.pe, 0);
    // The rendered location reads like a path into the schedule.
    EXPECT_NE(error->loc.qualifiedName().find("channel["),
              std::string::npos);
    EXPECT_NE(toString(*error).find("CHV004"), std::string::npos);
}

TEST(Verifier, WrongSlotSourceFlagsLaneMapping)
{
    const sparse::CsrMatrix a = sampleMatrix(4);
    sched::Schedule sch =
        sched::PeAwareScheduler(sched::SchedConfig{}).schedule(a);

    // Point one slot's source wires at the neighbouring PE: the element
    // would be accumulated in the wrong lane's ScUG.
    const unsigned pes = sch.config.pesPerGroup();
    bool tampered = false;
    for (auto &phase : sch.phases) {
        for (auto &ch : phase.channels) {
            for (auto &beat : ch.beats) {
                for (unsigned p = 0; p < pes && !tampered; ++p) {
                    sched::Slot &slot = beat.slots[p];
                    if (!slot.valid)
                        continue;
                    slot.peSrc = static_cast<std::uint8_t>(
                        (slot.peSrc + 1) % pes);
                    tampered = true;
                }
                if (tampered)
                    break;
            }
            if (tampered)
                break;
        }
        if (tampered)
            break;
    }
    ASSERT_TRUE(tampered);

    VerifyOptions options;
    options.matrix = &a;
    const VerifyResult result = verifySchedule(sch, options);
    EXPECT_FALSE(result.clean());
    EXPECT_TRUE(hasRule(result, rule::kLaneMapping)) << result.summary();
}

TEST(Verifier, SwappedPhasesFlagPhaseOrder)
{
    const sparse::CsrMatrix a = sampleMatrix(5);
    sched::SchedConfig cfg;
    cfg.windowCols = 256; // force several column windows
    sched::Schedule sch = sched::CrhcsScheduler(cfg).schedule(a);
    ASSERT_GE(sch.phases.size(), 2u);
    std::swap(sch.phases[0], sch.phases[1]);

    VerifyOptions options;
    options.matrix = &a;
    const VerifyResult result = verifySchedule(sch, options);
    // Out-of-order phases are suspicious but functionally simulatable,
    // so the rule reports a warning; a *duplicated* phase is the error
    // case (tested via completeness: its elements appear twice).
    EXPECT_GT(result.warnings, 0u);
    EXPECT_TRUE(hasRule(result, rule::kPhaseOrder)) << result.summary();
}

TEST(Verifier, DuplicatedPhaseIsAnError)
{
    const sparse::CsrMatrix a = sampleMatrix(5);
    sched::SchedConfig cfg;
    cfg.windowCols = 256;
    sched::Schedule sch = sched::CrhcsScheduler(cfg).schedule(a);
    ASSERT_GE(sch.phases.size(), 2u);
    sch.phases[1] = sch.phases[0]; // same (pass, window) twice

    VerifyOptions options;
    options.matrix = &a;
    const VerifyResult result = verifySchedule(sch, options);
    EXPECT_FALSE(result.clean());
    EXPECT_TRUE(hasRule(result, rule::kPhaseOrder)) << result.summary();
}

TEST(Verifier, ScugCapacityRuleUsesCallerLimit)
{
    const sparse::CsrMatrix a = sampleMatrix(6);
    const sched::Schedule sch =
        sched::CrhcsScheduler(sched::SchedConfig{}).schedule(a);

    VerifyOptions options;
    options.matrix = &a;
    // Physical limit far above the schedule's needs: clean.
    options.capacityRowsPerLane = 1u << 20;
    EXPECT_TRUE(verifySchedule(sch, options).clean());

    // One row per lane per pass: this matrix needs more.
    options.capacityRowsPerLane = 1;
    const VerifyResult result = verifySchedule(sch, options);
    EXPECT_FALSE(result.clean());
    EXPECT_TRUE(hasRule(result, rule::kScugCapacity)) << result.summary();
}

TEST(Verifier, WithoutMatrixSkipsCompletenessButKeepsHazards)
{
    const sparse::CsrMatrix a = sampleMatrix(7);
    const sched::Schedule clean =
        sched::CrhcsScheduler(sched::SchedConfig{}).schedule(a);

    // A tampered value is invisible without the ground-truth matrix...
    sched::Schedule tampered = clean;
    ASSERT_TRUE(corruptSchedule(tampered, Corruption::kValueTamper));
    EXPECT_TRUE(verifySchedule(tampered).clean());

    // ...but a RAW hazard is intrinsic to the schedule itself.
    sched::Schedule hazardous = clean;
    ASSERT_TRUE(corruptSchedule(hazardous, Corruption::kRawDistance));
    const VerifyResult result = verifySchedule(hazardous);
    EXPECT_FALSE(result.clean());
    EXPECT_TRUE(hasRule(result, rule::kRawHazard));
}

TEST(Verifier, PerRuleCapSuppressesButStillCounts)
{
    const sparse::CsrMatrix a = sampleMatrix(8);
    sched::Schedule sch =
        sched::CrhcsScheduler(sched::SchedConfig{}).schedule(a);
    // Tamper several distinct elements (different seeds pick different
    // sites) so CHV003 fires more than once.
    for (std::uint64_t seed = 1; seed <= 6; ++seed)
        corruptSchedule(sch, Corruption::kValueTamper, seed);

    VerifyOptions options;
    options.matrix = &a;
    options.maxDiagnosticsPerRule = 2;
    const VerifyResult capped = verifySchedule(sch, options);
    ASSERT_FALSE(capped.clean());

    options.maxDiagnosticsPerRule = 0; // unlimited
    const VerifyResult full = verifySchedule(sch, options);
    EXPECT_EQ(capped.errors, full.errors); // tallies are not capped
    EXPECT_LE(capped.diagnostics.size(), full.diagnostics.size());
    if (full.errors > 2) {
        EXPECT_GT(capped.suppressed, 0u);
    }
}

TEST(Verifier, RuleCatalogIsCompleteAndOrdered)
{
    std::size_t count = 0;
    const RuleInfo *rules = ruleCatalog(&count);
    ASSERT_EQ(count, 18u);
    for (std::size_t i = 0; i < count; ++i) {
        EXPECT_STREQ(rules[i].id, findRule(rules[i].id)->id);
        EXPECT_NE(rules[i].summary, nullptr);
        EXPECT_NE(rules[i].paperRef, nullptr);
        if (i > 0) {
            EXPECT_LT(std::string(rules[i - 1].id), rules[i].id);
        }
    }
    EXPECT_EQ(findRule("CHV999"), nullptr);
}

TEST(VerifierDeath, ValidateScheduleStillPanicsOnIllegalSchedule)
{
    const sparse::CsrMatrix a = sampleMatrix(9);
    sched::Schedule sch =
        sched::CrhcsScheduler(sched::SchedConfig{}).schedule(a);
    sched::validateSchedule(sch, a); // legal: no panic
    ASSERT_TRUE(corruptSchedule(sch, Corruption::kDuplicateElement));
    EXPECT_DEATH(sched::validateSchedule(sch, a), "CHV002");
}

} // namespace
} // namespace verify
} // namespace chason
