/**
 * @file
 * Request parsing and response rendering for the serving protocol.
 */

#include "serve/protocol.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <iterator>

#include "common/hash.h"
#include "common/json.h"

namespace chason {
namespace serve {

namespace {

using common::JsonValue;
using common::parseJson;

/**
 * Geometry bounds enforced at parse time. SchedConfig::validate()
 * panics on nonsense, which would take the whole daemon down — a
 * hostile or buggy client must be stopped at the protocol boundary
 * with a typed error instead.
 */
constexpr std::uint64_t kMaxChannels = 64;
constexpr std::uint64_t kMaxPes = 8; // sched::kMaxPesPerGroup
constexpr std::uint64_t kMaxRawDistance = 256;
constexpr std::uint64_t kMaxWindow = std::uint64_t{1} << 20;
constexpr std::uint64_t kMaxRowsPerLane = 32768;
constexpr std::size_t kMaxTenantLength = 64;

bool
failParse(std::string &error, const std::string &reason)
{
    error = reason;
    return false;
}

/** Bounded uint field: absent keeps @p out, malformed fails. */
bool
boundedUint(const JsonValue &object, const char *key, std::uint64_t lo,
            std::uint64_t hi, std::uint64_t &out, std::string &error)
{
    if (object.find(key) == nullptr)
        return true;
    std::uint64_t value = 0;
    if (!object.getUint(key, value))
        return failParse(error, std::string("field '") + key +
                                    "' must be a non-negative integer");
    if (value < lo || value > hi)
        return failParse(error, std::string("field '") + key +
                                    "' out of range [" +
                                    std::to_string(lo) + ", " +
                                    std::to_string(hi) + "]");
    out = value;
    return true;
}

} // namespace

std::string
Request::matrixKey() const
{
    switch (source) {
    case Source::Dataset:
        return "dataset:" + dataset;
    case Source::Path:
        return "path:" + path;
    case Source::Rmat:
        break;
    }
    char buffer[96];
    std::snprintf(buffer, sizeof(buffer),
                  "rmat:s%" PRIu32 ":e%" PRIu64 ":seed%" PRIu64,
                  rmatScale, rmatEdges, rmatSeed);
    return buffer;
}

void
Request::applyConfig(arch::ArchConfig &config) const
{
    if (channels != 0)
        config.sched.channels = channels;
    if (window != 0)
        config.sched.windowCols = window;
    if (rowsPerLane != 0)
        config.sched.rowsPerLanePerPass = rowsPerLane;
    if (rawDistance != 0)
        config.sched.rawDistance = rawDistance;
    if (pes != 0)
        config.sched.pesOverride = pes;
}

bool
parseRequest(const std::string &line, Request &out, std::string &error)
{
    out = Request();
    JsonValue root;
    if (!parseJson(line, root, error))
        return false;
    if (!root.isObject())
        return failParse(error, "request must be a JSON object");

    if (root.find("id") != nullptr) {
        if (!root.getUint("id", out.id))
            return failParse(error,
                             "field 'id' must be a non-negative integer");
        out.hasId = true;
    } else {
        return failParse(error, "field 'id' is required");
    }

    // Strict key set: a typo must be a typed error, not a silently
    // ignored knob.
    for (const auto &member : root.members) {
        const std::string &key = member.first;
        if (key != "id" && key != "tenant" && key != "dataset" &&
            key != "path" && key != "rmat" && key != "xseed" &&
            key != "engine" && key != "config")
            return failParse(error, "unknown field '" + key + "'");
    }

    if (root.find("tenant") != nullptr) {
        if (!root.getString("tenant", out.tenant))
            return failParse(error, "field 'tenant' must be a string");
        if (out.tenant.empty() ||
            out.tenant.size() > kMaxTenantLength)
            return failParse(error, "field 'tenant' must be 1..64 chars");
    }

    const JsonValue *dataset = root.find("dataset");
    const JsonValue *path = root.find("path");
    const JsonValue *rmat = root.find("rmat");
    const int sources = (dataset != nullptr) + (path != nullptr) +
        (rmat != nullptr);
    if (sources != 1)
        return failParse(error, "exactly one of 'dataset', 'path', "
                                "'rmat' must name the matrix");
    if (dataset != nullptr) {
        out.source = Request::Source::Dataset;
        if (!root.getString("dataset", out.dataset) ||
            out.dataset.empty())
            return failParse(error,
                             "field 'dataset' must be a non-empty string");
    } else if (path != nullptr) {
        out.source = Request::Source::Path;
        if (!root.getString("path", out.path) || out.path.empty())
            return failParse(error,
                             "field 'path' must be a non-empty string");
    } else {
        out.source = Request::Source::Rmat;
        if (!rmat->isObject())
            return failParse(error, "field 'rmat' must be an object "
                                    "{scale, edges, seed}");
        std::uint64_t scale = 0;
        std::uint64_t edges = 0;
        if (!rmat->getUint("scale", scale) || scale < 1 ||
            scale > kMaxMatrixScale)
            return failParse(error, "rmat.scale must be in [1, " +
                                        std::to_string(kMaxMatrixScale) +
                                        "]");
        if (!rmat->getUint("edges", edges) || edges < 1 ||
            edges > kMaxMatrixNnz)
            return failParse(error, "rmat.edges must be in [1, " +
                                        std::to_string(kMaxMatrixNnz) +
                                        "]");
        out.rmatScale = static_cast<std::uint32_t>(scale);
        out.rmatEdges = edges;
        if (rmat->find("seed") != nullptr &&
            !rmat->getUint("seed", out.rmatSeed))
            return failParse(error,
                             "rmat.seed must be a non-negative integer");
        for (const auto &member : rmat->members) {
            if (member.first != "scale" && member.first != "edges" &&
                member.first != "seed")
                return failParse(error, "unknown rmat field '" +
                                            member.first + "'");
        }
    }

    if (root.find("xseed") != nullptr &&
        !root.getUint("xseed", out.xSeed))
        return failParse(error,
                         "field 'xseed' must be a non-negative integer");

    if (root.find("engine") != nullptr) {
        std::string engine;
        if (!root.getString("engine", engine))
            return failParse(error, "field 'engine' must be a string");
        if (engine == "chason")
            out.kind = core::Engine::Kind::Chason;
        else if (engine == "serpens")
            out.kind = core::Engine::Kind::Serpens;
        else
            return failParse(error, "field 'engine' must be 'chason' "
                                    "or 'serpens'");
    }

    const JsonValue *config = root.find("config");
    if (config != nullptr) {
        if (!config->isObject())
            return failParse(error, "field 'config' must be an object");
        struct Bound
        {
            const char *key;
            std::uint64_t lo, hi;
            std::uint32_t Request::*field;
        };
        // migrationDepth defaults to 1, so channels needs >= 2.
        const Bound bounds[] = {
            {"channels", 2, kMaxChannels, &Request::channels},
            {"window", 1, kMaxWindow, &Request::window},
            {"rows_per_lane", 1, kMaxRowsPerLane, &Request::rowsPerLane},
            {"raw_distance", 1, kMaxRawDistance, &Request::rawDistance},
            {"pes", 1, kMaxPes, &Request::pes},
        };
        for (const auto &member : config->members) {
            if (std::none_of(std::begin(bounds), std::end(bounds),
                             [&](const Bound &b) {
                                 return member.first == b.key;
                             }))
                return failParse(error, "unknown config field '" +
                                            member.first + "'");
        }
        for (const Bound &bound : bounds) {
            std::uint64_t value = 0;
            if (!boundedUint(*config, bound.key, bound.lo, bound.hi, value,
                             error))
                return false;
            out.*bound.field = static_cast<std::uint32_t>(value);
        }
    }

    return true;
}

std::uint64_t
vectorDigest(const std::vector<float> &y)
{
    // FNV-1a over the raw float bits, least significant byte first:
    // bit-identical vectors — and only those — share a digest, which is
    // what the client's equivalence check needs. The start value is the
    // standard offset basis with its last decimal digit dropped; it is
    // kept because published digests must not change.
    static_assert(std::endian::native == std::endian::little,
                  "vectorDigest hashes floats in memory byte order");
    return common::fnv1a(y.data(), y.size() * sizeof(float),
                         1469598103934665603ull);
}

std::string
resultResponse(const Request &request, const core::SpmvReport &report,
               std::uint64_t ydigest, double serviceMs)
{
    char digest[24];
    std::snprintf(digest, sizeof(digest), "%016" PRIx64, ydigest);
    std::string line;
    common::JsonWriter(line)
        .beginObject()
        .key("id").integer(request.id)
        .key("ok").boolean(true)
        .key("dataset").string(report.dataset)
        .key("accelerator").string(report.accelerator)
        .key("rows").integer(report.rows)
        .key("cols").integer(report.cols)
        .key("nnz").integer(report.nnz)
        .key("cycles").integer(report.cycles)
        .key("latency_ms").number(report.latencyMs, "%.17g")
        .key("gflops").number(report.gflops, "%.17g")
        .key("functional_error").number(report.functionalError, "%.17g")
        .key("ydigest").string(digest)
        .key("service_ms").number(serviceMs, "%.3f")
        .endObject();
    return line;
}

std::string
errorResponse(bool hasId, std::uint64_t id, const char *errorType,
              const std::string &detail)
{
    std::string line;
    common::JsonWriter writer(line);
    writer.beginObject().key("id");
    if (hasId)
        writer.integer(id);
    else
        writer.null();
    writer.key("ok").boolean(false)
        .key("error").string(errorType)
        .key("detail").string(detail)
        .endObject();
    return line;
}

} // namespace serve
} // namespace chason
