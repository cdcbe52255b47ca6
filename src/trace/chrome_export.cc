/**
 * @file
 * Trace exporter implementation.
 */

#include "trace/chrome_export.h"

#include <fstream>
#include <set>
#include <sstream>

#include "common/json.h"
#include "common/logging.h"

namespace chason {
namespace trace {

namespace {

using common::JsonWriter;

constexpr int kDevicePid = 1;
constexpr int kHostPid = 2;

/** Every trace double: nine significant digits. */
constexpr const char *kNumber = "%.9g";

/** One metadata event; @p tid < 0 names the process instead. */
void
metadata(JsonWriter &w, const char *kind, int pid, int tid,
         const std::string &name)
{
    w.beginObject().key("name").string(kind).key("ph").string("M")
        .key("pid").integer(pid);
    if (tid >= 0)
        w.key("tid").integer(tid);
    w.key("args").beginObject().key("name").string(name).endObject()
        .endObject();
}

/** {"name": value, ...} of an ordered integer map. */
template <typename Map>
void
integerObject(JsonWriter &w, const char *key, const Map &values)
{
    w.key(key).beginObject();
    for (const auto &[name, value] : values)
        w.key(name).integer(value);
    w.endObject();
}

} // namespace

std::string
chromeTraceJson(const TraceSink &sink)
{
    const auto spans = sink.spans();
    const auto instants = sink.instants();
    const auto samples = sink.samples();

    std::string out;
    JsonWriter w(out);
    w.beginObject().key("displayTimeUnit").string("ms")
        .key("traceEvents").beginArray();

    metadata(w, "process_name", kDevicePid, -1,
             "chason device (1 us = 1 kernel cycle)");
    metadata(w, "process_name", kHostPid, -1, "chason host");

    std::set<std::uint32_t> device_tracks, host_tracks;
    for (const SpanEvent &s : spans)
        (s.device ? device_tracks : host_tracks).insert(s.track);
    for (const InstantEvent &i : instants)
        host_tracks.insert(i.track);
    for (std::uint32_t t : device_tracks) {
        const bool sequencer = t == kTrackSequencer;
        metadata(w, "thread_name", kDevicePid,
                 static_cast<int>(sequencer ? 0xffff : t),
                 sequencer ? "sequencer" : "PEG " + std::to_string(t));
    }
    for (std::uint32_t t : host_tracks) {
        metadata(w, "thread_name", kHostPid, static_cast<int>(t),
                 "host thread " + std::to_string(t));
    }

    for (const SpanEvent &s : spans) {
        w.beginObject().key("ph").string("X").key("name").string(s.name)
            .key("cat").string(categoryName(s.cat))
            .key("pid").integer(s.device ? kDevicePid : kHostPid)
            .key("tid").integer(s.track)
            .key("ts").number(s.begin, kNumber)
            .key("dur").number(s.dur, kNumber);
        if (s.argName0) {
            w.key("args").beginObject().key(s.argName0)
                .number(static_cast<double>(s.argVal0), kNumber);
            if (s.argName1) {
                w.key(s.argName1)
                    .number(static_cast<double>(s.argVal1), kNumber);
            }
            w.endObject();
        }
        w.endObject();
    }

    for (const InstantEvent &i : instants) {
        w.beginObject().key("ph").string("i").key("name").string(i.name)
            .key("s").string("t").key("pid").integer(kHostPid)
            .key("tid").integer(i.track)
            .key("ts").number(i.tsUs, kNumber)
            .endObject();
    }

    for (const CounterSample &c : samples) {
        w.beginObject().key("ph").string("C").key("name").string(c.name)
            .key("pid").integer(kHostPid).key("tid").integer(0)
            .key("ts").number(c.tsUs, kNumber)
            .key("args").beginObject().key("value")
            .number(c.value, kNumber).endObject()
            .endObject();
    }

    w.endArray().endObject();
    return out;
}

void
writeChromeTraceFile(const TraceSink &sink, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        chason_fatal("cannot create trace file '%s'", path.c_str());
    out << chromeTraceJson(sink);
    if (!out.good())
        chason_fatal("failed writing trace file '%s'", path.c_str());
}

std::string
countersJson(const TraceSink &sink)
{
    std::string out;
    JsonWriter w(out);
    w.beginObject();
    integerObject(w, "counters", sink.counters());
    integerObject(w, "category_cycles", sink.categoryCycles());
    w.key("peg_matrix_stream_cycles").beginArray();
    for (const auto &[track, value] : sink.pegStreamCycles()) {
        (void)track;
        w.integer(value);
    }
    w.endArray().endObject();
    return out;
}

} // namespace trace
} // namespace chason
