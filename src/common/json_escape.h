/**
 * @file
 * JSON string escaping shared by every JSON the project writes: the
 * report JSON, the SARIF log, the Chrome trace and the serving
 * protocol's responses.
 */

#ifndef CHASON_COMMON_JSON_ESCAPE_H_
#define CHASON_COMMON_JSON_ESCAPE_H_

#include <string>

namespace chason {
namespace common {

/**
 * Escape @p raw for a JSON string literal: quote, backslash, \n, \r and
 * \t get their short escapes, every other byte below 0x20 becomes
 * \u00XX, and all other bytes pass through unchanged.
 */
std::string jsonEscape(const std::string &raw);

} // namespace common
} // namespace chason

#endif // CHASON_COMMON_JSON_ESCAPE_H_
