/**
 * @file
 * Tests for the SARIF 2.1.0 exporter: document structure, rule catalog
 * embedding, result attribution and JSON string escaping. Assertions
 * are substring-based — the repo deliberately has no JSON parser — but
 * run_all.sh additionally validates the emitted file with python3's
 * json module when available.
 */

#include "verify/sarif.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sched/crhcs.h"
#include "sparse/generators.h"
#include "verify/mutate.h"
#include "verify/rules.h"

namespace chason {
namespace verify {
namespace {

VerifyResult
corruptedResult(const sparse::CsrMatrix &a, Corruption kind)
{
    sched::Schedule sch =
        sched::CrhcsScheduler(sched::SchedConfig{}).schedule(a);
    corruptSchedule(sch, kind);
    VerifyOptions options;
    options.matrix = &a;
    return verifySchedule(sch, options);
}

TEST(Sarif, EmptyLogIsAWellFormedDocument)
{
    const SarifLog log;
    const std::string json = log.toJson();
    EXPECT_NE(json.find("\"version\": \"2.1.0\""), std::string::npos);
    EXPECT_NE(json.find("sarif-2.1.0.json"), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"chason_verify\""), std::string::npos);
    EXPECT_NE(json.find("\"results\": []"), std::string::npos);
}

TEST(Sarif, EmbedsTheFullRuleCatalog)
{
    const SarifLog log;
    const std::string json = log.toJson();
    std::size_t count = 0;
    const RuleInfo *rules = ruleCatalog(&count);
    for (std::size_t i = 0; i < count; ++i) {
        EXPECT_NE(json.find(std::string("\"id\": \"") + rules[i].id +
                            "\""),
                  std::string::npos)
            << rules[i].id << " missing from driver.rules";
    }
}

TEST(Sarif, ResultsCarryRuleLevelAndLocations)
{
    Rng rng(11);
    const sparse::CsrMatrix a =
        sparse::zipfRows(1500, 1500, 12000, 1.25, rng);
    const VerifyResult result =
        corruptedResult(a, Corruption::kRawDistance);
    ASSERT_FALSE(result.clean());

    SarifLog log;
    log.addResult(result, "schedules/test.crhcs.sched");
    EXPECT_EQ(log.size(), result.diagnostics.size());

    const std::string json = log.toJson();
    EXPECT_NE(json.find("\"ruleId\": \"CHV004\""), std::string::npos);
    EXPECT_NE(json.find("\"level\": \"error\""), std::string::npos);
    EXPECT_NE(json.find("\"uri\": \"schedules/test.crhcs.sched\""),
              std::string::npos);
    EXPECT_NE(json.find("logicalLocations"), std::string::npos);
    EXPECT_NE(json.find("fullyQualifiedName"), std::string::npos);
    // ruleIndex must reference the catalog position of CHV004 (3).
    EXPECT_NE(json.find("\"ruleIndex\": 3"), std::string::npos);
}

TEST(Sarif, AggregatesSeveralArtifactsIntoOneRun)
{
    Rng rng(12);
    const sparse::CsrMatrix a =
        sparse::zipfRows(1500, 1500, 12000, 1.25, rng);

    SarifLog log;
    log.addResult(corruptedResult(a, Corruption::kValueTamper),
                  "schedules/one.sched");
    log.addResult(corruptedResult(a, Corruption::kDropElement),
                  "schedules/two.sched");
    ASSERT_GE(log.size(), 2u);

    const std::string json = log.toJson();
    EXPECT_NE(json.find("schedules/one.sched"), std::string::npos);
    EXPECT_NE(json.find("schedules/two.sched"), std::string::npos);
    // Exactly one run aggregates everything.
    EXPECT_EQ(json.find("\"runs\""), json.rfind("\"runs\""));
}

TEST(Sarif, ArtifactUriSpacesAreEscaped)
{
    Rng rng(13);
    const sparse::CsrMatrix a =
        sparse::zipfRows(1500, 1500, 12000, 1.25, rng);
    SarifLog log;
    log.addResult(corruptedResult(a, Corruption::kValueTamper),
                  "my schedules/a b.sched");
    const std::string json = log.toJson();
    EXPECT_NE(json.find("my%20schedules/a%20b.sched"), std::string::npos);
    EXPECT_EQ(json.find("my schedules"), std::string::npos);
}

} // namespace
} // namespace verify
} // namespace chason
