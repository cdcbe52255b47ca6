/**
 * @file
 * The one JSON module: a strict parser, string escaping and a compact
 * writer. Every JSON document the project reads or writes goes through
 * it, except the SARIF log, whose fixed indented layout
 * verify/sarif.cc writes itself with jsonEscape().
 */

#ifndef CHASON_COMMON_JSON_H_
#define CHASON_COMMON_JSON_H_

#include <charconv>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace chason {
namespace common {

/** One parsed JSON value; a tagged tree. */
class JsonValue
{
  public:
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string text;
    std::vector<JsonValue> items;                          ///< Array
    std::vector<std::pair<std::string, JsonValue>> members; ///< Object

    bool isNull() const { return type == Type::Null; }
    bool isBool() const { return type == Type::Bool; }
    bool isNumber() const { return type == Type::Number; }
    bool isString() const { return type == Type::String; }
    bool isArray() const { return type == Type::Array; }
    bool isObject() const { return type == Type::Object; }

    /** Member lookup (first match); null when absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    /**
     * The member as a non-negative integer: present, a number, whole,
     * and in [0, 2^53]. Returns false (leaving @p out untouched) for
     * anything else — protocol fields must not round silently.
     */
    bool getUint(const std::string &key, std::uint64_t &out) const;

    /** The member as a string; false when absent or not a string. */
    bool getString(const std::string &key, std::string &out) const;
};

/**
 * Parse @p text, one complete strict RFC 8259 document, into @p out.
 * Trailing garbage and nesting deeper than 32 fail; numbers are held
 * as double, exact for integers up to 2^53. On failure returns false
 * and puts a human-readable reason with a byte offset into @p error.
 */
bool parseJson(const std::string &text, JsonValue &out,
               std::string &error);

/**
 * Escape @p raw for a JSON string literal: quote, backslash, \n, \r and
 * \t get their short escapes, every other byte below 0x20 becomes
 * \u00XX, and all other bytes pass through unchanged.
 */
std::string jsonEscape(std::string_view raw);

/**
 * Compact JSON writer appending to a caller's string. Every value call
 * is one array element, or the value of the key() before it; the
 * writer puts the commas in. Keys and strings are escaped. Each double
 * takes the printf format its document's consumers pin, and a
 * non-finite one is written as null: JSON has no NaN or Inf.
 *
 *   std::string out;
 *   JsonWriter(out).beginObject().key("n").integer(3).endObject();
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::string &out) : out_(out) {}

    JsonWriter &beginObject() { return open('{'); }
    JsonWriter &endObject() { return close('}'); }
    JsonWriter &beginArray() { return open('['); }
    JsonWriter &endArray() { return close(']'); }

    /** The key of the next value; inside an object only. */
    JsonWriter &key(std::string_view name);

    JsonWriter &string(std::string_view text);
    JsonWriter &boolean(bool value) { return raw(value ? "true" : "false"); }
    JsonWriter &null() { return raw("null"); }

    template <std::integral Int>
    JsonWriter &integer(Int value)
    {
        static_assert(!std::same_as<Int, bool>, "use boolean()");
        separate();
        char buf[24];
        const auto end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
        out_.append(buf, end);
        return *this;
    }

    /** @p value with printf @p format ("%.9g", ...); null if not finite. */
    JsonWriter &number(double value, const char *format);

    /** A pre-built JSON document, copied as is, as one value. */
    JsonWriter &raw(std::string_view json);

    /**
     * The members of the pre-built object @p object ("{...}") spliced
     * into the object being written, as if each had been written here.
     */
    JsonWriter &members(std::string_view object);

    /**
     * Whitespace written before the next value or closing bracket,
     * after the comma when one is due. For documents whose line layout
     * is part of their format; a later call replaces an unused one.
     */
    JsonWriter &space(const char *whitespace)
    {
        space_ = whitespace;
        return *this;
    }

  private:
    /** Comma and pending whitespace before an item. */
    void separate();
    JsonWriter &open(char bracket);
    JsonWriter &close(char bracket);

    std::string &out_;
    /** The next item needs a comma: one was written before it. */
    bool comma_ = false;
    const char *space_ = nullptr;
};

} // namespace common
} // namespace chason

#endif // CHASON_COMMON_JSON_H_
