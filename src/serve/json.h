/**
 * @file
 * The serving layer's names for the JSON parser in common/json.h,
 * kept for code outside src/ that still spells them serve::.
 */

#ifndef CHASON_SERVE_JSON_H_
#define CHASON_SERVE_JSON_H_

#include "common/json.h"

namespace chason {
namespace serve {

using common::JsonValue;
using common::parseJson;

} // namespace serve
} // namespace chason

#endif // CHASON_SERVE_JSON_H_
