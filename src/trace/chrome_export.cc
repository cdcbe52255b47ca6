/**
 * @file
 * Trace exporter implementation.
 */

#include "trace/chrome_export.h"

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "common/json_escape.h"
#include "common/logging.h"

namespace chason {
namespace trace {

namespace {

constexpr int kDevicePid = 1;
constexpr int kHostPid = 2;

void
appendNumber(std::string &out, double value)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    out += buf;
}

void
appendMetadata(std::string &out, const char *kind, int pid, int tid,
               const std::string &name, bool &first)
{
    if (!first)
        out += ',';
    first = false;
    char buf[64];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"ph\":\"M\",\"pid\":%d,", kind, pid);
    out += buf;
    if (tid >= 0) {
        std::snprintf(buf, sizeof(buf), "\"tid\":%d,", tid);
        out += buf;
    }
    out += "\"args\":{\"name\":\"" + common::jsonEscape(name) + "\"}}";
}

std::string
deviceTrackName(std::uint32_t track)
{
    if (track == kTrackSequencer)
        return "sequencer";
    char buf[24];
    std::snprintf(buf, sizeof(buf), "PEG %u", track);
    return buf;
}

} // namespace

std::string
chromeTraceJson(const TraceSink &sink)
{
    const auto spans = sink.spans();
    const auto instants = sink.instants();
    const auto samples = sink.samples();

    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;

    appendMetadata(out, "process_name", kDevicePid, -1,
                   "chason device (1 us = 1 kernel cycle)", first);
    appendMetadata(out, "process_name", kHostPid, -1, "chason host",
                   first);

    std::set<std::uint32_t> device_tracks, host_tracks;
    for (const SpanEvent &s : spans)
        (s.device ? device_tracks : host_tracks).insert(s.track);
    for (const InstantEvent &i : instants)
        host_tracks.insert(i.track);
    for (std::uint32_t t : device_tracks) {
        appendMetadata(out, "thread_name", kDevicePid,
                       static_cast<int>(t == kTrackSequencer ? 0xffff : t),
                       deviceTrackName(t), first);
    }
    for (std::uint32_t t : host_tracks) {
        char name[24];
        std::snprintf(name, sizeof(name), "host thread %u", t);
        appendMetadata(out, "thread_name", kHostPid, static_cast<int>(t),
                       name, first);
    }

    for (const SpanEvent &s : spans) {
        if (!first)
            out += ',';
        first = false;
        out += "{\"ph\":\"X\",\"name\":\"" + common::jsonEscape(s.name) +
            "\",\"cat\":\"";
        out += categoryName(s.cat);
        char buf[64];
        std::snprintf(buf, sizeof(buf), "\",\"pid\":%d,\"tid\":%u,",
                      s.device ? kDevicePid : kHostPid, s.track);
        out += buf;
        out += "\"ts\":";
        appendNumber(out, s.begin);
        out += ",\"dur\":";
        appendNumber(out, s.dur);
        if (s.argName0) {
            out += ",\"args\":{\"";
            out += s.argName0;
            out += "\":";
            appendNumber(out, static_cast<double>(s.argVal0));
            if (s.argName1) {
                out += ",\"";
                out += s.argName1;
                out += "\":";
                appendNumber(out, static_cast<double>(s.argVal1));
            }
            out += '}';
        }
        out += '}';
    }

    for (const InstantEvent &i : instants) {
        if (!first)
            out += ',';
        first = false;
        char buf[64];
        std::snprintf(buf, sizeof(buf),
                      "\",\"s\":\"t\",\"pid\":%d,\"tid\":%u,\"ts\":",
                      kHostPid, i.track);
        out += "{\"ph\":\"i\",\"name\":\"" + common::jsonEscape(i.name) +
            buf;
        appendNumber(out, i.tsUs);
        out += '}';
    }

    for (const CounterSample &c : samples) {
        if (!first)
            out += ',';
        first = false;
        char buf[48];
        std::snprintf(buf, sizeof(buf),
                      "\",\"pid\":%d,\"tid\":0,\"ts\":", kHostPid);
        out += "{\"ph\":\"C\",\"name\":\"" + common::jsonEscape(c.name) +
            buf;
        appendNumber(out, c.tsUs);
        out += ",\"args\":{\"value\":";
        appendNumber(out, c.value);
        out += "}}";
    }

    out += "]}";
    return out;
}

void
writeChromeTrace(const TraceSink &sink, std::ostream &out)
{
    out << chromeTraceJson(sink);
}

void
writeChromeTraceFile(const TraceSink &sink, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        chason_fatal("cannot create trace file '%s'", path.c_str());
    writeChromeTrace(sink, out);
    if (!out.good())
        chason_fatal("failed writing trace file '%s'", path.c_str());
}

std::string
countersJson(const TraceSink &sink)
{
    std::string out = "{\"counters\":{";
    bool first = true;
    for (const auto &[name, value] : sink.counters()) {
        if (!first)
            out += ',';
        first = false;
        out += '"' + common::jsonEscape(name) + "\":";
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(value));
        out += buf;
    }
    out += "},\"category_cycles\":{";
    first = true;
    for (const auto &[name, value] : sink.categoryCycles()) {
        if (!first)
            out += ',';
        first = false;
        out += '"' + common::jsonEscape(name) + "\":";
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(value));
        out += buf;
    }
    out += "},\"peg_matrix_stream_cycles\":[";
    first = true;
    for (const auto &[track, value] : sink.pegStreamCycles()) {
        (void)track;
        if (!first)
            out += ',';
        first = false;
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(value));
        out += buf;
    }
    out += "]}";
    return out;
}

} // namespace trace
} // namespace chason
