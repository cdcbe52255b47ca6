/**
 * @file
 * Tests for common/json: the strict parser, string escaping and the
 * compact writer, including the round trip of one through the other.
 */

#include "common/json.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

#include <gtest/gtest.h>

namespace chason {
namespace common {
namespace {

// -------------------------------------------------------------- parser

TEST(JsonParser, ParsesNestedDocument)
{
    JsonValue v;
    std::string error;
    ASSERT_TRUE(parseJson(
        R"({"a":1,"b":[true,null,"x\n\u0041"],"c":{"d":-2.5}})", v,
        error))
        << error;
    ASSERT_TRUE(v.isObject());
    std::uint64_t a = 0;
    EXPECT_TRUE(v.getUint("a", a));
    EXPECT_EQ(a, 1u);
    const JsonValue *b = v.find("b");
    ASSERT_NE(b, nullptr);
    ASSERT_TRUE(b->isArray());
    ASSERT_EQ(b->items.size(), 3u);
    EXPECT_TRUE(b->items[0].isBool());
    EXPECT_TRUE(b->items[0].boolean);
    EXPECT_TRUE(b->items[1].isNull());
    EXPECT_EQ(b->items[2].text, "x\nA");
    const JsonValue *c = v.find("c");
    ASSERT_NE(c, nullptr);
    const JsonValue *d = c->find("d");
    ASSERT_NE(d, nullptr);
    EXPECT_DOUBLE_EQ(d->number, -2.5);
}

TEST(JsonParser, RejectsMalformedInput)
{
    JsonValue v;
    std::string error;
    EXPECT_FALSE(parseJson("", v, error));
    EXPECT_FALSE(parseJson("{", v, error));
    EXPECT_FALSE(parseJson("{\"a\":1,}", v, error));
    EXPECT_FALSE(parseJson("{\"a\":1} garbage", v, error));
    EXPECT_FALSE(parseJson("{\"a\":01}", v, error));
    EXPECT_FALSE(parseJson("\"\\q\"", v, error));
    EXPECT_FALSE(parseJson("nul", v, error));
}

TEST(JsonParser, CapsNestingDepth)
{
    std::string deep;
    for (int i = 0; i < 64; ++i)
        deep += "[";
    for (int i = 0; i < 64; ++i)
        deep += "]";
    JsonValue v;
    std::string error;
    EXPECT_FALSE(parseJson(deep, v, error));
    EXPECT_NE(error.find("depth"), std::string::npos);
}

TEST(JsonParser, GetUintRejectsNonIntegers)
{
    JsonValue v;
    std::string error;
    ASSERT_TRUE(parseJson(
        R"({"frac":1.5,"neg":-1,"big":1e300,"ok":9007199254740992})", v,
        error));
    std::uint64_t out = 7;
    EXPECT_FALSE(v.getUint("frac", out));
    EXPECT_FALSE(v.getUint("neg", out));
    EXPECT_FALSE(v.getUint("big", out));
    EXPECT_FALSE(v.getUint("absent", out));
    EXPECT_EQ(out, 7u); // untouched on failure
    EXPECT_TRUE(v.getUint("ok", out));
    EXPECT_EQ(out, 9007199254740992u); // 2^53, the inclusive cap
}

// -------------------------------------------------------------- writer

TEST(JsonWriter, PutsCommasBetweenItemsAtEveryDepth)
{
    std::string out;
    JsonWriter w(out);
    w.beginObject()
        .key("a").integer(1)
        .key("b").beginArray().integer(2).beginObject().endObject()
        .beginArray().endArray().boolean(true).null().endArray()
        .key("c").beginObject().key("d").string("x").endObject()
        .endObject();
    EXPECT_EQ(out, R"({"a":1,"b":[2,{},[],true,null],"c":{"d":"x"}})");
}

TEST(JsonWriter, AppendsToTheCallersString)
{
    std::string out = "prefix ";
    JsonWriter(out).beginArray().integer(-3).integer(
        std::numeric_limits<std::uint64_t>::max()).endArray();
    EXPECT_EQ(out, "prefix [-3,18446744073709551615]");
}

TEST(JsonWriter, EscapesKeysAndStrings)
{
    std::string out;
    JsonWriter(out).beginObject()
        .key("k\"ey").string("a\\b\n\t\x01")
        .endObject();
    EXPECT_EQ(out, R"({"k\"ey":"a\\b\n\t\u0001"})");
    JsonValue v;
    std::string error;
    ASSERT_TRUE(parseJson(out, v, error)) << error;
    std::string text;
    EXPECT_TRUE(v.getString("k\"ey", text));
    EXPECT_EQ(text, "a\\b\n\t\x01");
}

TEST(JsonWriter, NumbersUseTheCallersFormat)
{
    std::string out;
    JsonWriter(out).beginArray()
        .number(0.1, "%.9g")
        .number(0.1, "%.17g")
        .number(2.5, "%.3f")
        .number(1e300, "%.3f")
        .endArray();
    // A wide "%f" is written whole, not cut at a buffer size.
    char wide[400];
    std::snprintf(wide, sizeof(wide), "%.3f", 1e300);
    ASSERT_EQ(std::string(wide).size(), 305u);
    EXPECT_EQ(out, "[0.1,0.10000000000000001,2.500," + std::string(wide) +
                       "]");
    JsonValue v;
    std::string error;
    ASSERT_TRUE(parseJson(out, v, error)) << error;
    EXPECT_DOUBLE_EQ(v.items[3].number, 1e300);
}

TEST(JsonWriter, NonFiniteDoublesAreNull)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    std::string out;
    JsonWriter(out).beginObject()
        .key("nan").number(nan, "%.17g")
        .key("inf").number(inf, "%.9g")
        .key("ninf").number(-inf, "%.3f")
        .key("list").beginArray().number(1.0, "%.9g").number(nan, "%.9g")
        .number(-inf, "%.9g").endArray()
        .endObject();
    EXPECT_EQ(out, R"({"nan":null,"inf":null,"ninf":null,)"
                   R"("list":[1,null,null]})");
    JsonValue v;
    std::string error;
    ASSERT_TRUE(parseJson(out, v, error)) << error;
    EXPECT_TRUE(v.find("inf")->isNull());
}

TEST(JsonWriter, EmbedsPrebuiltDocuments)
{
    std::string inner;
    JsonWriter(inner).beginObject().key("x").integer(1).key("y")
        .integer(2).endObject();

    std::string out;
    JsonWriter(out).beginObject()
        .key("raw").raw(inner)
        .members(inner)
        .members("{}")
        .key("z").integer(3)
        .endObject();
    EXPECT_EQ(out, R"({"raw":{"x":1,"y":2},"x":1,"y":2,"z":3})");

    std::string spliced;
    JsonWriter(spliced).beginObject().members(inner).endObject();
    EXPECT_EQ(spliced, inner);
}

TEST(JsonWriter, SpacePlacesWhitespaceAfterTheComma)
{
    auto report = [](int tiers) {
        std::string out;
        JsonWriter w(out);
        w.beginObject().key("bench").string("b")
            .space("\n ").key("tiers").beginArray();
        for (int i = 0; i < tiers; ++i)
            w.space("\n  ").beginObject().key("i").integer(i).endObject();
        w.space("\n ").endArray().endObject();
        return out;
    };
    EXPECT_EQ(report(0), "{\"bench\":\"b\",\n \"tiers\":[\n ]}");
    EXPECT_EQ(report(2), "{\"bench\":\"b\",\n \"tiers\":[\n"
                         "  {\"i\":0},\n  {\"i\":1}\n ]}");
    JsonValue v;
    std::string error;
    ASSERT_TRUE(parseJson(report(2), v, error)) << error;
    EXPECT_EQ(v.find("tiers")->items.size(), 2u);
}

TEST(JsonEscape, ShortAndUnicodeEscapes)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("q\"b\\"), "q\\\"b\\\\");
    EXPECT_EQ(jsonEscape("\r\x1f"), "\\r\\u001f");
    EXPECT_EQ(jsonEscape("caf\xc3\xa9"), "caf\xc3\xa9");
}

} // namespace
} // namespace common
} // namespace chason
