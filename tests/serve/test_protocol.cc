/**
 * @file
 * Unit tests for the serving layer's pure parts: the request parser with its protocol-boundary bounds (nothing a client
 * sends may reach a fatal SchedConfig::validate()), response
 * rendering, the y-vector digest, and deterministic token-bucket /
 * admission-control behavior with caller-supplied time.
 */

#include "serve/admission.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "sparse/formats.h"

#include <cctype>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace chason {
namespace serve {
namespace {

// ------------------------------------------------------------ requests

TEST(ServeProtocol, ParsesMinimalDatasetRequest)
{
    Request request;
    std::string error;
    ASSERT_TRUE(
        parseRequest(R"({"id":7,"dataset":"CM"})", request, error))
        << error;
    EXPECT_TRUE(request.hasId);
    EXPECT_EQ(request.id, 7u);
    EXPECT_EQ(request.tenant, "default");
    EXPECT_EQ(request.source, Request::Source::Dataset);
    EXPECT_EQ(request.dataset, "CM");
    EXPECT_EQ(request.kind, core::Engine::Kind::Chason);
    EXPECT_EQ(request.matrixKey(), "dataset:CM");
}

TEST(ServeProtocol, ParsesFullRmatRequest)
{
    Request request;
    std::string error;
    ASSERT_TRUE(parseRequest(
        R"({"id":1,"tenant":"t0","rmat":{"scale":9,"edges":4000,)"
        R"("seed":3},"xseed":42,"engine":"serpens",)"
        R"("config":{"channels":8,"window":256,"rows_per_lane":64,)"
        R"("raw_distance":4,"pes":4}})",
        request, error))
        << error;
    EXPECT_EQ(request.source, Request::Source::Rmat);
    EXPECT_EQ(request.rmatScale, 9u);
    EXPECT_EQ(request.rmatEdges, 4000u);
    EXPECT_EQ(request.rmatSeed, 3u);
    EXPECT_EQ(request.xSeed, 42u);
    EXPECT_EQ(request.kind, core::Engine::Kind::Serpens);
    EXPECT_EQ(request.channels, 8u);
    EXPECT_EQ(request.window, 256u);
    EXPECT_EQ(request.rowsPerLane, 64u);
    EXPECT_EQ(request.rawDistance, 4u);
    EXPECT_EQ(request.pes, 4u);
    EXPECT_EQ(request.matrixKey(), "rmat:s9:e4000:seed3");

    arch::ArchConfig config;
    request.applyConfig(config);
    EXPECT_EQ(config.sched.channels, 8u);
    EXPECT_EQ(config.sched.windowCols, 256u);
    EXPECT_EQ(config.sched.rowsPerLanePerPass, 64u);
    EXPECT_EQ(config.sched.rawDistance, 4u);
    EXPECT_EQ(config.sched.pesOverride, 4u);
}

TEST(ServeProtocol, RejectsStructurallyInvalidRequests)
{
    Request request;
    std::string error;
    // Not JSON at all.
    EXPECT_FALSE(parseRequest("hello", request, error));
    // Missing id.
    EXPECT_FALSE(parseRequest(R"({"dataset":"CM"})", request, error));
    // Unknown top-level key.
    EXPECT_FALSE(parseRequest(
        R"({"id":1,"dataset":"CM","chanels":4})", request, error));
    EXPECT_NE(error.find("chanels"), std::string::npos);
    // Zero or two matrix sources.
    EXPECT_FALSE(parseRequest(R"({"id":1})", request, error));
    EXPECT_FALSE(parseRequest(
        R"({"id":1,"dataset":"CM","path":"x.mtx"})", request, error));
    // Unknown engine.
    EXPECT_FALSE(parseRequest(
        R"({"id":1,"dataset":"CM","engine":"gpu"})", request, error));
    // Unknown rmat / config member.
    EXPECT_FALSE(parseRequest(
        R"({"id":1,"rmat":{"scale":8,"edges":10,"fanout":2}})", request,
        error));
    EXPECT_FALSE(parseRequest(
        R"({"id":1,"dataset":"CM","config":{"lanes":4}})", request,
        error));
    // Over-long tenant.
    EXPECT_FALSE(parseRequest(
        R"({"id":1,"dataset":"CM","tenant":")" + std::string(65, 't') +
            R"("})",
        request, error));
}

/**
 * Geometry that would trip SchedConfig::validate()'s fatal checks must
 * be refused at the protocol boundary — the daemon never panics on
 * client input.
 */
TEST(ServeProtocol, RejectsOutOfBoundsGeometry)
{
    Request request;
    std::string error;
    // channels=1 < migrationDepth+1.
    EXPECT_FALSE(parseRequest(
        R"({"id":1,"dataset":"CM","config":{"channels":1}})", request,
        error));
    // pes above the hardware's 8-per-group limit.
    EXPECT_FALSE(parseRequest(
        R"({"id":1,"dataset":"CM","config":{"pes":9}})", request,
        error));
    EXPECT_FALSE(parseRequest(
        R"({"id":1,"dataset":"CM","config":{"window":0}})", request,
        error));
    EXPECT_FALSE(parseRequest(
        R"({"id":1,"rmat":{"scale":40,"edges":10}})", request, error));
    // The id still parsed, so the error can be correlated.
    EXPECT_TRUE(request.hasId);
    EXPECT_EQ(request.id, 1u);
}

/**
 * Client-bytes fuzz: mutations of the valid requests above — truncated,
 * bit-flipped, spliced, or with a numeric field widened to 30 digits —
 * must each be accepted, or refused with a reason. None may reach
 * fatal() or panic(), which would abort this test binary.
 */
TEST(ServeProtocol, FuzzedRequestsNeverAbort)
{
    const std::vector<std::string> valid = {
        R"({"id":7,"dataset":"CM"})",
        R"({"id":33,"dataset":"CM"})",
        R"({"id":1,"tenant":"t0","rmat":{"scale":9,"edges":4000,)"
        R"("seed":3},"xseed":42,"engine":"serpens",)"
        R"("config":{"channels":8,"window":256,"rows_per_lane":64,)"
        R"("raw_distance":4,"pes":4}})",
    };
    std::mt19937_64 rng(0x5EEDF022);
    auto below = [&rng](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };
    auto digits = [&](std::size_t n) {
        std::string out;
        for (std::size_t i = 0; i < n; ++i)
            out += static_cast<char>('0' + below(10));
        return out;
    };

    constexpr int kIterations = 20000;
    int accepted = 0;
    for (int iter = 0; iter < kIterations; ++iter) {
        std::string line = valid[below(valid.size())];
        switch (iter % 4) {
        case 0: // truncation
            line.resize(below(line.size() + 1));
            break;
        case 1: // one to four bit flips
            for (std::size_t n = 1 + below(4); n > 0; --n)
                line[below(line.size())] ^=
                    static_cast<char>(1u << below(8));
            break;
        case 2: { // splice: a prefix of one request, a suffix of another
            const std::string &tail = valid[below(valid.size())];
            line = line.substr(0, below(line.size() + 1)) +
                tail.substr(below(tail.size() + 1));
            break;
        }
        default: { // a numeric field widened to 30 digits
            std::vector<std::size_t> starts;
            for (std::size_t i = 0; i < line.size(); ++i) {
                if (std::isdigit(static_cast<unsigned char>(line[i])) &&
                    (i == 0 ||
                     !std::isdigit(static_cast<unsigned char>(line[i - 1]))))
                    starts.push_back(i);
            }
            const std::size_t at = starts[below(starts.size())];
            std::size_t end = at;
            while (end < line.size() &&
                   std::isdigit(static_cast<unsigned char>(line[end])))
                ++end;
            static const char *const kShapes[] = {"", "-", "0", "1e", "."};
            std::string wide = digits(30);
            const std::string shape = kShapes[below(5)];
            if (shape == "1e" || shape == ".")
                wide = "1" + shape + wide;
            else
                wide = shape + wide;
            line.replace(at, end - at, wide);
            break;
        }
        }
        SCOPED_TRACE(line);
        Request request;
        std::string error;
        if (parseRequest(line, request, error)) {
            ++accepted;
        } else {
            EXPECT_FALSE(error.empty());
        }
    }
    // Both outcomes occur, so the mutations reach past the JSON layer.
    EXPECT_GT(accepted, 0);
    EXPECT_LT(accepted, kIterations);
}

// ----------------------------------------------------------- responses

TEST(ServeProtocol, ResponsesRoundTripThroughTheParser)
{
    Request request;
    std::string error;
    ASSERT_TRUE(
        parseRequest(R"({"id":33,"dataset":"CM"})", request, error));
    core::SpmvReport report;
    report.dataset = "dataset:CM";
    report.accelerator = "chason";
    report.rows = 10;
    report.cols = 12;
    report.nnz = 34;
    report.cycles = 999;
    report.latencyMs = 0.5;
    report.gflops = 1.25;
    report.functionalError = 0.0;

    JsonValue v;
    ASSERT_TRUE(
        parseJson(resultResponse(request, report, 0xabcdef0123456789ull,
                                 2.5),
                  v, error))
        << error;
    std::uint64_t id = 0;
    EXPECT_TRUE(v.getUint("id", id));
    EXPECT_EQ(id, 33u);
    ASSERT_NE(v.find("ok"), nullptr);
    EXPECT_TRUE(v.find("ok")->boolean);
    std::string digest;
    EXPECT_TRUE(v.getString("ydigest", digest));
    EXPECT_EQ(digest, "abcdef0123456789");
    std::uint64_t cycles = 0;
    EXPECT_TRUE(v.getUint("cycles", cycles));
    EXPECT_EQ(cycles, 999u);

    ASSERT_TRUE(parseJson(
        errorResponse(true, 33, kErrOverBudget, "tenant \"x\" dry"), v,
        error))
        << error;
    EXPECT_FALSE(v.find("ok")->boolean);
    std::string type;
    EXPECT_TRUE(v.getString("error", type));
    EXPECT_EQ(type, "over_budget");
    std::string detail;
    EXPECT_TRUE(v.getString("detail", detail));
    EXPECT_EQ(detail, "tenant \"x\" dry");

    // Unparsable id: correlated as null.
    ASSERT_TRUE(parseJson(errorResponse(false, 0, kErrBadRequest, "x"),
                          v, error));
    ASSERT_NE(v.find("id"), nullptr);
    EXPECT_TRUE(v.find("id")->isNull());

    // A response has no length limit: a long path label and a long
    // error detail each come back whole, as one parsable line.
    report.dataset = "path:/" + std::string(640, 'd') + "/m.mtx";
    const std::string line =
        resultResponse(request, report, 0xabcdef0123456789ull, 2.5);
    EXPECT_GT(line.size(), 600u);
    EXPECT_EQ(line.find('\n'), std::string::npos);
    ASSERT_TRUE(parseJson(line, v, error)) << error;
    std::string dataset;
    EXPECT_TRUE(v.getString("dataset", dataset));
    EXPECT_EQ(dataset, report.dataset);
    EXPECT_TRUE(v.getUint("cycles", cycles));
    EXPECT_EQ(cycles, 999u);

    const std::string longDetail = std::string(700, 'e') + "\"\n";
    ASSERT_TRUE(parseJson(errorResponse(true, 34, kErrBadRequest,
                                        longDetail),
                          v, error))
        << error;
    EXPECT_TRUE(v.getString("detail", detail));
    EXPECT_EQ(detail, longDetail);
}

TEST(ServeProtocol, NonFiniteFunctionalErrorIsNull)
{
    // One row of 64 values of 3e38 overflows y's float sum, so the
    // functional error against the double reference is infinite. JSON
    // has no Inf: the response must still parse, carrying null.
    std::vector<sparse::Triplet> entries;
    for (std::uint32_t col = 0; col < 64; ++col)
        entries.push_back({0, col, 3e38f});
    const sparse::CsrMatrix a(1, 64, entries);
    const std::vector<float> x(64, 1.0f);
    const core::SpmvReport report =
        core::Engine(core::Engine::Kind::Chason)
            .run(a, x, "path:overflow.mtx");
    ASSERT_FALSE(std::isfinite(report.functionalError));

    Request request;
    request.id = 5;
    JsonValue v;
    std::string error;
    const std::string line = resultResponse(request, report, 0, 1.0);
    ASSERT_TRUE(parseJson(line, v, error)) << line << ": " << error;
    ASSERT_NE(v.find("functional_error"), nullptr);
    EXPECT_TRUE(v.find("functional_error")->isNull());
    EXPECT_NE(line.find("\"functional_error\":null"), std::string::npos);
}

TEST(ServeProtocol, VectorDigestSeparatesBitPatterns)
{
    const std::vector<float> a = {1.0f, 2.0f, 3.0f};
    std::vector<float> b = a;
    EXPECT_EQ(vectorDigest(a), vectorDigest(b));
    b[2] = std::nextafter(b[2], 4.0f); // one ulp
    EXPECT_NE(vectorDigest(a), vectorDigest(b));
    // Order matters, and so does the split into elements.
    EXPECT_NE(vectorDigest({1.0f, 2.0f}), vectorDigest({2.0f, 1.0f}));
    EXPECT_NE(vectorDigest({}), vectorDigest({0.0f}));
}

TEST(ServeProtocol, VectorDigestIsPinned)
{
    // Clients compare digests across releases; this value must never
    // change.
    EXPECT_EQ(vectorDigest({1.0f, -2.5f, 0.0f, 3.14159f}),
              0xd7f3dee7324a077aull);
}

// ----------------------------------------------------------- admission

TEST(ServeAdmission, TokenBucketRefillsDeterministically)
{
    TokenBucket bucket(2.0, 3.0, 0.0); // 2/s sustained, burst 3
    EXPECT_TRUE(bucket.tryTake(0.0));
    EXPECT_TRUE(bucket.tryTake(0.0));
    EXPECT_TRUE(bucket.tryTake(0.0));
    EXPECT_FALSE(bucket.tryTake(0.0)); // burst exhausted
    EXPECT_FALSE(bucket.tryTake(0.4)); // 0.8 tokens: not enough
    EXPECT_TRUE(bucket.tryTake(0.5));  // 1.0 token
    EXPECT_FALSE(bucket.tryTake(0.5));
    // Refill clamps at burst: a long idle gap buys 3, not 2000.
    EXPECT_TRUE(bucket.tryTake(1000.0));
    EXPECT_TRUE(bucket.tryTake(1000.0));
    EXPECT_TRUE(bucket.tryTake(1000.0));
    EXPECT_FALSE(bucket.tryTake(1000.0));
}

TEST(ServeAdmission, BudgetIsCheckedBeforeQueueAndPerTenant)
{
    AdmissionControl::Options options;
    options.queueCapacity = 2;
    options.tokensPerSec = 1.0;
    options.tokenBurst = 2.0;
    AdmissionControl control(options);

    // Tenant a: burst of 2 admits, third is over budget even though
    // it also would not fit the queue — budget answers first, so a
    // flooding tenant learns nothing about global queue pressure.
    EXPECT_EQ(control.tryAdmit("a", 0.0), Admission::kAdmitted);
    EXPECT_EQ(control.tryAdmit("a", 0.0), Admission::kAdmitted);
    EXPECT_EQ(control.tryAdmit("a", 0.0), Admission::kOverBudget);
    EXPECT_EQ(control.depth(), 2u);

    // Tenant b has its own untouched bucket, but the queue is full.
    EXPECT_EQ(control.tryAdmit("b", 0.0), Admission::kQueueFull);

    control.release();
    EXPECT_EQ(control.tryAdmit("b", 0.0), Admission::kAdmitted);
    EXPECT_EQ(control.depth(), 2u);
    EXPECT_EQ(control.maxDepth(), 2u);

    control.release();
    control.release();
    EXPECT_EQ(control.depth(), 0u);
    EXPECT_EQ(control.maxDepth(), 2u);
}

TEST(ServeAdmission, ZeroRateDisablesQos)
{
    AdmissionControl::Options options;
    options.queueCapacity = 100;
    options.tokensPerSec = 0.0;
    AdmissionControl control(options);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(control.tryAdmit("t", 0.0), Admission::kAdmitted);
}

} // namespace
} // namespace serve
} // namespace chason
