/**
 * @file
 * JSON parser, escaping and writer implementation.
 */

#include "common/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"

namespace chason {
namespace common {

namespace {

/** Parser state over one document; reports byte offsets on error. */
struct Parser
{
    const char *begin;
    const char *cursor;
    const char *end;
    std::string error;

    /** Hostile nesting must fail cleanly, not exhaust the stack. */
    static constexpr int kMaxDepth = 32;

    bool fail(const std::string &reason)
    {
        error = reason + " at offset " +
            std::to_string(static_cast<std::size_t>(cursor - begin));
        return false;
    }

    void skipSpace()
    {
        while (cursor < end &&
               (*cursor == ' ' || *cursor == '\t' || *cursor == '\n' ||
                *cursor == '\r'))
            ++cursor;
    }

    bool consume(char c)
    {
        if (cursor < end && *cursor == c) {
            ++cursor;
            return true;
        }
        return false;
    }

    bool literal(const char *word, std::size_t len)
    {
        if (static_cast<std::size_t>(end - cursor) < len ||
            std::memcmp(cursor, word, len) != 0)
            return false;
        cursor += len;
        return true;
    }

    /** Append one code point as UTF-8. */
    static void appendUtf8(std::string &out, unsigned cp)
    {
        if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        }
    }

    bool parseHex4(unsigned &out)
    {
        if (end - cursor < 4)
            return false;
        unsigned value = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = cursor[i];
            unsigned digit;
            if (c >= '0' && c <= '9')
                digit = static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                digit = static_cast<unsigned>(c - 'a') + 10;
            else if (c >= 'A' && c <= 'F')
                digit = static_cast<unsigned>(c - 'A') + 10;
            else
                return false;
            value = (value << 4) | digit;
        }
        cursor += 4;
        out = value;
        return true;
    }

    bool parseString(std::string &out)
    {
        if (!consume('"'))
            return fail("expected '\"'");
        out.clear();
        while (cursor < end) {
            const char c = *cursor;
            if (c == '"') {
                ++cursor;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("unescaped control character in string");
            if (c != '\\') {
                out.push_back(c);
                ++cursor;
                continue;
            }
            ++cursor; // the backslash
            if (cursor >= end)
                return fail("truncated escape");
            const char esc = *cursor++;
            switch (esc) {
            case '"': out.push_back('"'); break;
            case '\\': out.push_back('\\'); break;
            case '/': out.push_back('/'); break;
            case 'b': out.push_back('\b'); break;
            case 'f': out.push_back('\f'); break;
            case 'n': out.push_back('\n'); break;
            case 'r': out.push_back('\r'); break;
            case 't': out.push_back('\t'); break;
            case 'u': {
                unsigned cp;
                if (!parseHex4(cp))
                    return fail("bad \\u escape");
                // Surrogate pairs are not needed by the protocol;
                // replace lone/paired surrogates with U+FFFD rather
                // than emit invalid UTF-8.
                if (cp >= 0xD800 && cp <= 0xDFFF)
                    cp = 0xFFFD;
                appendUtf8(out, cp);
                break;
            }
            default:
                return fail("unknown escape");
            }
        }
        return fail("unterminated string");
    }

    /** RFC 8259 grammar: -?(0|[1-9]\d*)(\.\d+)?([eE][+-]?\d+)? —
     *  stricter than strtod, which also takes "01", "+1" or "1.". */
    static bool numberGrammarOk(const char *s, const char *e)
    {
        if (s < e && *s == '-')
            ++s;
        if (s >= e)
            return false;
        if (*s == '0') {
            ++s;
        } else if (*s >= '1' && *s <= '9') {
            while (s < e && *s >= '0' && *s <= '9')
                ++s;
        } else {
            return false;
        }
        if (s < e && *s == '.') {
            ++s;
            if (s >= e || *s < '0' || *s > '9')
                return false;
            while (s < e && *s >= '0' && *s <= '9')
                ++s;
        }
        if (s < e && (*s == 'e' || *s == 'E')) {
            ++s;
            if (s < e && (*s == '+' || *s == '-'))
                ++s;
            if (s >= e || *s < '0' || *s > '9')
                return false;
            while (s < e && *s >= '0' && *s <= '9')
                ++s;
        }
        return s == e;
    }

    bool parseNumber(JsonValue &out)
    {
        const char *start = cursor;
        while (cursor < end &&
               ((*cursor >= '0' && *cursor <= '9') || *cursor == '.' ||
                *cursor == 'e' || *cursor == 'E' || *cursor == '+' ||
                *cursor == '-'))
            ++cursor;
        const std::string token(start, cursor);
        char *parsedEnd = nullptr;
        const double value = std::strtod(token.c_str(), &parsedEnd);
        if (!numberGrammarOk(start, start + token.size()) ||
            parsedEnd != token.c_str() + token.size() ||
            !std::isfinite(value)) {
            cursor = start;
            return fail("malformed number");
        }
        out.type = JsonValue::Type::Number;
        out.number = value;
        return true;
    }

    bool parseValue(JsonValue &out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting depth limit exceeded");
        skipSpace();
        if (cursor >= end)
            return fail("unexpected end of input");
        switch (*cursor) {
        case '{': {
            ++cursor;
            out.type = JsonValue::Type::Object;
            skipSpace();
            if (consume('}'))
                return true;
            for (;;) {
                skipSpace();
                std::string key;
                if (!parseString(key))
                    return false;
                skipSpace();
                if (!consume(':'))
                    return fail("expected ':'");
                JsonValue value;
                if (!parseValue(value, depth + 1))
                    return false;
                out.members.emplace_back(std::move(key),
                                         std::move(value));
                skipSpace();
                if (consume(','))
                    continue;
                if (consume('}'))
                    return true;
                return fail("expected ',' or '}'");
            }
        }
        case '[': {
            ++cursor;
            out.type = JsonValue::Type::Array;
            skipSpace();
            if (consume(']'))
                return true;
            for (;;) {
                JsonValue value;
                if (!parseValue(value, depth + 1))
                    return false;
                out.items.push_back(std::move(value));
                skipSpace();
                if (consume(','))
                    continue;
                if (consume(']'))
                    return true;
                return fail("expected ',' or ']'");
            }
        }
        case '"':
            out.type = JsonValue::Type::String;
            return parseString(out.text);
        case 't':
            if (!literal("true", 4))
                return fail("bad literal");
            out.type = JsonValue::Type::Bool;
            out.boolean = true;
            return true;
        case 'f':
            if (!literal("false", 5))
                return fail("bad literal");
            out.type = JsonValue::Type::Bool;
            out.boolean = false;
            return true;
        case 'n':
            if (!literal("null", 4))
                return fail("bad literal");
            out.type = JsonValue::Type::Null;
            return true;
        default:
            return parseNumber(out);
        }
    }
};

void
appendEscaped(std::string &out, std::string_view raw)
{
    for (unsigned char c : raw) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
}

} // namespace

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (type != Type::Object)
        return nullptr;
    for (const auto &member : members) {
        if (member.first == key)
            return &member.second;
    }
    return nullptr;
}

bool
JsonValue::getUint(const std::string &key, std::uint64_t &out) const
{
    const JsonValue *value = find(key);
    if (value == nullptr || !value->isNumber())
        return false;
    const double n = value->number;
    if (n < 0.0 || n > 9007199254740992.0 /* 2^53 */ ||
        n != std::floor(n))
        return false;
    out = static_cast<std::uint64_t>(n);
    return true;
}

bool
JsonValue::getString(const std::string &key, std::string &out) const
{
    const JsonValue *value = find(key);
    if (value == nullptr || !value->isString())
        return false;
    out = value->text;
    return true;
}

bool
parseJson(const std::string &text, JsonValue &out, std::string &error)
{
    Parser parser{text.data(), text.data(), text.data() + text.size(),
                  {}};
    out = JsonValue();
    if (!parser.parseValue(out, 0)) {
        error = parser.error;
        return false;
    }
    parser.skipSpace();
    if (parser.cursor != parser.end) {
        parser.fail("trailing garbage");
        error = parser.error;
        return false;
    }
    return true;
}

std::string
jsonEscape(std::string_view raw)
{
    std::string out;
    out.reserve(raw.size());
    appendEscaped(out, raw);
    return out;
}

void
JsonWriter::separate()
{
    if (comma_)
        out_ += ',';
    if (space_ != nullptr)
        out_ += space_;
    space_ = nullptr;
    comma_ = true;
}

JsonWriter &
JsonWriter::open(char bracket)
{
    separate();
    out_ += bracket;
    comma_ = false;
    return *this;
}

JsonWriter &
JsonWriter::close(char bracket)
{
    if (space_ != nullptr)
        out_ += space_;
    space_ = nullptr;
    out_ += bracket;
    comma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view name)
{
    string(name);
    out_ += ':';
    comma_ = false;
    return *this;
}

JsonWriter &
JsonWriter::string(std::string_view text)
{
    separate();
    out_ += '"';
    appendEscaped(out_, text);
    out_ += '"';
    return *this;
}

JsonWriter &
JsonWriter::number(double value, const char *format)
{
    if (!std::isfinite(value))
        return null();
    separate();
    char buf[64];
    const int n = std::snprintf(buf, sizeof(buf), format, value);
    chason_assert(n >= 0, "bad JSON number format '%s'", format);
    if (static_cast<std::size_t>(n) < sizeof(buf)) {
        out_.append(buf, static_cast<std::size_t>(n));
    } else {
        // "%f" of a large value: format again straight into the string.
        const std::size_t at = out_.size();
        out_.resize(at + static_cast<std::size_t>(n) + 1);
        std::snprintf(out_.data() + at, static_cast<std::size_t>(n) + 1,
                      format, value);
        out_.resize(at + static_cast<std::size_t>(n));
    }
    return *this;
}

JsonWriter &
JsonWriter::raw(std::string_view json)
{
    separate();
    out_ += json;
    return *this;
}

JsonWriter &
JsonWriter::members(std::string_view object)
{
    chason_assert(object.size() >= 2 && object.front() == '{' &&
                      object.back() == '}',
                  "members() takes a JSON object");
    if (object.size() > 2) {
        separate();
        out_ += object.substr(1, object.size() - 2);
    }
    return *this;
}

} // namespace common
} // namespace chason
