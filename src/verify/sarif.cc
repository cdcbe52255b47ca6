/**
 * @file
 * SARIF 2.1.0 writer.
 *
 * The log keeps a fixed, indented layout that tests pin, so it is
 * written here rather than with the compact common::JsonWriter; its
 * strings go through common::jsonEscape. Property order follows the
 * SARIF spec's examples.
 */

#include "verify/sarif.h"

#include <cstdint>
#include <cstdio>

#include "common/buildinfo.h"
#include "common/hash.h"
#include "common/json.h"
#include "verify/rules.h"

namespace chason {
namespace verify {

namespace {

constexpr const char *kSchemaUri =
    "https://json.schemastore.org/sarif-2.1.0.json";
constexpr const char *kToolName = "chason_verify";
constexpr const char *kToolVersion = "1.0.0";
constexpr const char *kInfoUri =
    "https://github.com/chason-sim/chason";

std::string
uriEscape(const std::string &uri)
{
    std::string out;
    out.reserve(uri.size());
    for (char c : uri) {
        if (c == ' ')
            out += "%20";
        else
            out += c;
    }
    return out;
}

void
appendQuoted(std::string &out, const std::string &text)
{
    out += '"';
    out += common::jsonEscape(text);
    out += '"';
}

/** One run object at the fixed "    " indent of the runs array. */
void
emitRun(std::string &out, const SarifRun &run)
{
    out += "    {\n";

    // tool.driver with the embedded rule table.
    out += "      \"tool\": {\n        \"driver\": {\n";
    out += "          \"name\": ";
    appendQuoted(out, run.toolName);
    if (!run.toolVersion.empty()) {
        out += ",\n          \"version\": ";
        appendQuoted(out, run.toolVersion);
    }
    if (!run.semanticVersion.empty()) {
        out += ",\n          \"semanticVersion\": ";
        appendQuoted(out, run.semanticVersion);
    }
    if (!run.informationUri.empty()) {
        out += ",\n          \"informationUri\": ";
        appendQuoted(out, run.informationUri);
    }
    if (!run.revision.empty()) {
        out += ",\n          \"properties\": {\"revision\": ";
        appendQuoted(out, run.revision);
        out += "}";
    }
    out += ",\n          \"rules\": [\n";
    for (std::size_t i = 0; i < run.rules.size(); ++i) {
        const SarifRule &r = run.rules[i];
        out += "            {\n              \"id\": ";
        appendQuoted(out, r.id);
        out += ",\n              \"name\": ";
        appendQuoted(out, r.name);
        out += ",\n              \"shortDescription\": {\"text\": ";
        appendQuoted(out, r.shortDescription);
        out += "},\n              \"fullDescription\": {\"text\": ";
        appendQuoted(out, r.fullDescription.empty() ? r.shortDescription
                                                    : r.fullDescription);
        out += "},\n              \"defaultConfiguration\": "
               "{\"level\": ";
        appendQuoted(out, r.level);
        out += "}\n            }";
        out += i + 1 < run.rules.size() ? ",\n" : "\n";
    }
    out += "          ]\n        }\n      },\n";

    // results.
    if (run.results.empty()) {
        out += "      \"results\": []\n    }";
        return;
    }
    out += "      \"results\": [\n";
    for (std::size_t i = 0; i < run.results.size(); ++i) {
        const SarifFinding &f = run.results[i];
        out += "        {\n          \"ruleId\": ";
        appendQuoted(out, f.ruleId);
        const int index = run.ruleIndexOf(f.ruleId);
        if (index >= 0) {
            char buf[48];
            std::snprintf(buf, sizeof(buf),
                          ",\n          \"ruleIndex\": %d", index);
            out += buf;
        }
        out += ",\n          \"level\": ";
        appendQuoted(out, f.level);
        out += ",\n          \"message\": {\"text\": ";
        appendQuoted(out, f.message);
        out += "},\n          \"locations\": [\n            {\n";
        out += "              \"physicalLocation\": {\n";
        out += "                \"artifactLocation\": {\"uri\": ";
        appendQuoted(out, uriEscape(f.uri));
        out += "}";
        if (f.line > 0) {
            char buf[96];
            if (f.column > 0) {
                std::snprintf(buf, sizeof(buf),
                              ",\n                \"region\": "
                              "{\"startLine\": %d, \"startColumn\": %d}",
                              f.line, f.column);
            } else {
                std::snprintf(buf, sizeof(buf),
                              ",\n                \"region\": "
                              "{\"startLine\": %d}",
                              f.line);
            }
            out += buf;
        }
        out += "\n              }";
        if (!f.logicalName.empty()) {
            out += ",\n              \"logicalLocations\": [\n";
            out += "                {\"fullyQualifiedName\": ";
            appendQuoted(out, f.logicalName);
            out += "}\n              ]";
        }
        out += "\n            }\n          ]";
        if (!f.fingerprint.empty()) {
            out += ",\n          \"partialFingerprints\": "
                   "{\"chasonLint/v1\": ";
            appendQuoted(out, f.fingerprint);
            out += "}";
        }
        out += "\n        }";
        out += i + 1 < run.results.size() ? ",\n" : "\n";
    }
    out += "      ]\n    }";
}

} // namespace

int
SarifRun::addRule(const SarifRule &rule)
{
    const int existing = ruleIndexOf(rule.id);
    if (existing >= 0)
        return existing;
    rules.push_back(rule);
    return static_cast<int>(rules.size()) - 1;
}

int
SarifRun::ruleIndexOf(const std::string &ruleId) const
{
    for (std::size_t i = 0; i < rules.size(); ++i) {
        if (rules[i].id == ruleId)
            return static_cast<int>(i);
    }
    return -1;
}

std::size_t
SarifDocument::resultCount() const
{
    std::size_t n = 0;
    for (const SarifRun &run : runs_)
        n += run.results.size();
    return n;
}

std::string
SarifDocument::toJson() const
{
    std::string out;
    out.reserve(4096 + resultCount() * 256);
    out += "{\n";
    out += "  \"$schema\": \"";
    out += kSchemaUri;
    out += "\",\n  \"version\": \"2.1.0\",\n  \"runs\": [\n";
    for (std::size_t i = 0; i < runs_.size(); ++i) {
        emitRun(out, runs_[i]);
        out += i + 1 < runs_.size() ? ",\n" : "\n";
    }
    out += "  ]\n}\n";
    return out;
}

void
SarifLog::addResult(const VerifyResult &result,
                    const std::string &artifactUri)
{
    for (const Diagnostic &d : result.diagnostics)
        results_.push_back({d, artifactUri});
}

SarifRun
SarifLog::toRun() const
{
    SarifRun run;
    run.toolName = kToolName;
    run.toolVersion = kToolVersion;
    run.semanticVersion = kToolVersion;
    run.informationUri = kInfoUri;
    // The emitting revision: lets a stored document answer "which tree
    // produced these findings" (same stamp the BENCH reports carry).
    run.revision = common::gitRevision();

    std::size_t rule_count = 0;
    const RuleInfo *rules = ruleCatalog(&rule_count);
    for (std::size_t i = 0; i < rule_count; ++i) {
        const RuleInfo &r = rules[i];
        SarifRule rule;
        rule.id = r.id;
        rule.name = r.name;
        rule.shortDescription = r.summary;
        rule.fullDescription =
            std::string(r.summary) + " Models: " + r.paperRef + ".";
        rule.level = severityName(r.defaultSeverity);
        run.addRule(rule);
    }

    for (const Entry &e : results_) {
        SarifFinding f;
        f.ruleId = e.diagnostic.ruleId;
        f.level = severityName(e.diagnostic.severity);
        f.message = e.diagnostic.message;
        f.uri = e.artifactUri;
        f.logicalName = e.diagnostic.loc.qualifiedName();
        run.results.push_back(std::move(f));
    }
    return run;
}

std::string
SarifLog::toJson() const
{
    SarifDocument doc;
    doc.addRun(toRun());
    return doc.toJson();
}

std::string
lintFingerprint(const std::string &ruleId, const std::string &uri,
                const std::string &message)
{
    const std::uint64_t h =
        common::fnv1a(ruleId + "|" + uri + "|" + message);
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::vector<std::string>
sarifFingerprints(const std::string &sarifJson)
{
    std::vector<std::string> out;
    common::JsonValue log;
    std::string error;
    if (!common::parseJson(sarifJson, log, error))
        return out;
    const common::JsonValue *runs = log.find("runs");
    if (runs == nullptr)
        return out;
    for (const common::JsonValue &run : runs->items) {
        const common::JsonValue *results = run.find("results");
        if (results == nullptr)
            continue;
        for (const common::JsonValue &result : results->items) {
            const common::JsonValue *fingerprints =
                result.find("partialFingerprints");
            std::string fingerprint;
            if (fingerprints != nullptr &&
                fingerprints->getString("chasonLint/v1", fingerprint))
                out.push_back(std::move(fingerprint));
        }
    }
    return out;
}

} // namespace verify
} // namespace chason
