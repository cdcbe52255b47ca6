/**
 * @file
 * JSON serialization of reports — the machine-readable counterpart of
 * the benches' text tables, for downstream plotting/tooling.
 *
 * Written with common::JsonWriter: compact, every double as "%.9g",
 * and null for a non-finite one.
 */

#ifndef CHASON_CORE_REPORT_JSON_H_
#define CHASON_CORE_REPORT_JSON_H_

#include <string>

#include "arch/timing.h"
#include "common/json.h"
#include "core/engine.h"
#include "core/schedule_cache.h"
#include "core/spmm.h"
#include "sched/analyzer.h"

namespace chason {
namespace core {

/** JSON string escaping, under the name code outside src/ uses. */
using common::jsonEscape;

/** One SpMV report as a JSON object. */
std::string toJson(const SpmvReport &report);

/** A cycle breakdown as a JSON object (snake_case category keys). */
std::string toJson(const arch::CycleBreakdown &cycles);

/** One SpMM report as a JSON object. */
std::string toJson(const SpmmReport &report);

/** Schedule statistics as a JSON object. */
std::string toJson(const sched::ScheduleStats &stats);

/** Schedule-cache counters as a JSON object. */
std::string toJson(const ScheduleCacheStats &stats);

/** A Chasoň/Serpens comparison as a JSON object. */
std::string toJson(const Comparison &comparison);

} // namespace core
} // namespace chason

#endif // CHASON_CORE_REPORT_JSON_H_
