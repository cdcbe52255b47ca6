/**
 * @file
 * Trace exporters: Chrome trace_event JSON and flat counters JSON.
 *
 * The Chrome format (loadable in chrome://tracing and Perfetto) gets
 * two processes: pid 1 is the device timeline, where one trace
 * microsecond renders one simulated kernel cycle and each PEG is a
 * named thread; pid 2 is the host timeline in real microseconds
 * (scheduler phases, batch jobs, counter samples). The flat counters
 * JSON carries the monotonic counters plus per-category cycle totals,
 * shaped for merging into report JSON (see docs/TRACE_SCHEMA.md).
 */

#ifndef CHASON_TRACE_CHROME_EXPORT_H_
#define CHASON_TRACE_CHROME_EXPORT_H_

#include <string>

#include "trace/trace.h"

namespace chason {
namespace trace {

/** The complete Chrome trace_event JSON document for @p sink. */
std::string chromeTraceJson(const TraceSink &sink);

/** Write the Chrome trace to @p path; fatal() when unwritable. */
void writeChromeTraceFile(const TraceSink &sink, const std::string &path);

/**
 * Flat counters object: {"counters": {...}, "category_cycles": {...},
 * "peg_matrix_stream_cycles": [...]} — raw JSON suitable for embedding
 * in a report object.
 */
std::string countersJson(const TraceSink &sink);

} // namespace trace
} // namespace chason

#endif // CHASON_TRACE_CHROME_EXPORT_H_
