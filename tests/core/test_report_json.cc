/**
 * @file
 * Tests for the JSON report emitter.
 */

#include "core/report_json.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sparse/generators.h"

namespace chason {
namespace core {
namespace {

arch::ArchConfig
smallConfig()
{
    arch::ArchConfig cfg;
    cfg.sched.channels = 4;
    cfg.sched.pesOverride = 4;
    cfg.sched.rawDistance = 4;
    cfg.sched.windowCols = 128;
    cfg.sched.rowsPerLanePerPass = 64;
    return cfg;
}

// The one JSON escape (common/json_escape.h) behind the report JSON,
// the SARIF log, the Chrome trace and the serving protocol.
TEST(JsonEscape, HandlesSpecials)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
    EXPECT_EQ(jsonEscape("a\tb"), "a\\tb");
    EXPECT_EQ(jsonEscape("a\rb"), "a\\rb");
    EXPECT_EQ(jsonEscape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
    // Bytes at and above 0x20, UTF-8 included, pass through unchanged.
    EXPECT_EQ(jsonEscape(" ~\x7f\xc3\xa9"), " ~\x7f\xc3\xa9");
}

TEST(JsonEscape, CoreNameIsTheCommonImplementation)
{
    EXPECT_EQ(&core::jsonEscape, &common::jsonEscape);
}

/** Inverse of jsonEscape for the escapes it emits, to prove the
 *  escaping is lossless rather than merely parseable. */
std::string
jsonUnescape(const std::string &escaped)
{
    std::string out;
    for (std::size_t i = 0; i < escaped.size(); ++i) {
        if (escaped[i] != '\\') {
            out += escaped[i];
            continue;
        }
        const char next = escaped[++i];
        switch (next) {
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case 'u': {
            const unsigned code = static_cast<unsigned>(
                std::stoul(escaped.substr(i + 1, 4), nullptr, 16));
            out += static_cast<char>(code);
            i += 4;
            break;
          }
          default: ADD_FAILURE() << "unknown escape \\" << next;
        }
    }
    return out;
}

TEST(JsonEscape, ControlCharactersRoundTrip)
{
    // Every byte below 0x20 must come back bit-identical, whether it
    // uses a short escape (\n, \t, \r) or \uXXXX.
    std::string raw = "a\nb\tc\x01d";
    raw += '\x1f';
    raw += '\0';
    raw += '\x0b';
    EXPECT_EQ(jsonUnescape(jsonEscape(raw)), raw);

    std::string all;
    for (int c = 0; c < 0x20; ++c)
        all += static_cast<char>(c);
    const std::string escaped = jsonEscape(all);
    // Escaped form itself contains no raw control bytes.
    for (char c : escaped)
        EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
    EXPECT_EQ(jsonUnescape(escaped), all);
}

TEST(ToJson, SpmvReportFields)
{
    Rng rng(1);
    const sparse::CsrMatrix a = sparse::erdosRenyi(32, 64, 256, rng);
    const std::vector<float> x = sparse::randomVector(a.cols(), rng);
    const SpmvReport r =
        Engine(Engine::Kind::Chason, smallConfig()).run(a, x, "js\"on");
    const std::string json = toJson(r);

    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"kind\":\"spmv\""), std::string::npos);
    EXPECT_NE(json.find("\"accelerator\":\"chason\""),
              std::string::npos);
    EXPECT_NE(json.find("\"dataset\":\"js\\\"on\""), std::string::npos);
    EXPECT_NE(json.find("\"nnz\":" + std::to_string(a.nnz())),
              std::string::npos);
    EXPECT_NE(json.find("\"per_peg_underutilization\":["),
              std::string::npos);
    // No raw control characters or NaNs.
    EXPECT_EQ(json.find("nan"), std::string::npos);
    EXPECT_EQ(json.find('\n'), std::string::npos);
}

TEST(ToJson, CycleBreakdownEmbeddedAndReconciles)
{
    Rng rng(6);
    const sparse::CsrMatrix a = sparse::erdosRenyi(48, 48, 300, rng);
    const std::vector<float> x = sparse::randomVector(a.cols(), rng);
    const SpmvReport r =
        Engine(Engine::Kind::Chason, smallConfig()).run(a, x, "bd");
    const std::string json = toJson(r);
    EXPECT_NE(json.find("\"cycle_breakdown\":{"), std::string::npos);
    EXPECT_NE(json.find("\"matrix_stream\":" +
                        std::to_string(r.cycleBreakdown.matrixStream)),
              std::string::npos);
    // The embedded total equals the report's top-level cycle count.
    EXPECT_NE(json.find("\"total\":" + std::to_string(r.cycles)),
              std::string::npos);

    const std::string breakdown = toJson(r.cycleBreakdown);
    EXPECT_NE(breakdown.find("\"reduction\":"), std::string::npos);
    EXPECT_NE(breakdown.find("\"launch\":"), std::string::npos);
}

TEST(ToJson, ComparisonNestsBothReports)
{
    Rng rng(2);
    const sparse::CsrMatrix a = sparse::arrowBanded(64, 4, 0.3, 1, rng);
    const std::vector<float> x = sparse::randomVector(a.cols(), rng);
    const Comparison cmp = compare(a, x, "cmp", smallConfig());
    const std::string json = toJson(cmp);
    EXPECT_NE(json.find("\"chason\":{"), std::string::npos);
    EXPECT_NE(json.find("\"serpens\":{"), std::string::npos);
    EXPECT_NE(json.find("\"speedup\":"), std::string::npos);
    EXPECT_NE(json.find("\"transfer_reduction\":"), std::string::npos);
}

TEST(ToJson, ScheduleStats)
{
    Rng rng(3);
    const sparse::CsrMatrix a = sparse::erdosRenyi(32, 64, 200, rng);
    Engine engine(Engine::Kind::Serpens, smallConfig());
    const sched::ScheduleStats stats =
        sched::analyze(engine.schedule(a));
    const std::string json = toJson(stats);
    EXPECT_NE(json.find("\"stalls\":"), std::string::npos);
    EXPECT_NE(json.find("\"matrix_bytes\":"), std::string::npos);
}

TEST(ToJson, SpmmReport)
{
    Rng rng(4);
    const sparse::CsrMatrix a = sparse::erdosRenyi(32, 64, 256, rng);
    std::vector<float> b(static_cast<std::size_t>(a.cols()) * 4, 0.5f);
    const SpmmReport r =
        SpmmEngine(Engine::Kind::Chason, SpmmConfig{}, smallConfig())
            .run(a, b, 4);
    const std::string json = toJson(r);
    EXPECT_NE(json.find("\"kind\":\"spmm\""), std::string::npos);
    EXPECT_NE(json.find("\"n_cols\":4"), std::string::npos);
    EXPECT_NE(json.find("\"tiles\":1"), std::string::npos);
}

TEST(ToJson, BalancedBraces)
{
    Rng rng(5);
    const sparse::CsrMatrix a = sparse::erdosRenyi(16, 16, 64, rng);
    const std::vector<float> x = sparse::randomVector(a.cols(), rng);
    const Comparison cmp = compare(a, x, "", smallConfig());
    const std::string json = toJson(cmp);
    int depth = 0;
    for (char c : json) {
        if (c == '{')
            ++depth;
        if (c == '}')
            --depth;
        EXPECT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
}

} // namespace
} // namespace core
} // namespace chason
