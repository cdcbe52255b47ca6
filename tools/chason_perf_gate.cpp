/**
 * @file
 * Perf-trajectory gate: compare a freshly emitted BENCH_*.json against
 * a committed baseline with a tolerance band.
 *
 *   chason_perf_gate --current BENCH_sched.json \
 *                    --baseline bench/baselines/BENCH_sched.prepr.json \
 *                    --min-ratio 1.8
 *
 * For every tier in the baseline (or just the one named by --tier),
 * the current report must reach at least min-ratio times the baseline
 * throughput. With the committed
 * pre-rewrite baselines, min-ratio > 1 gates the speedup itself (the
 * band sits below the measured medians to absorb machine noise); with
 * a same-revision baseline, min-ratio slightly below 1 is a plain
 * regression gate. --min-abs additionally requires an absolute
 * throughput floor (in the report's own unit — e.g. 20 against
 * BENCH_load.json gates the >= 20x warm-start speedup headline
 * directly). --field compares a different numeric per-tier field than
 * the default throughput_per_s — e.g. --field scaling_efficiency with
 * --min-abs 0.7 holds BENCH_batch.json's parallel-efficiency floor.
 * Exits non-zero on a miss — unless soft mode is on
 * (--soft, or the gate was built under ASan/TSan, whose overhead makes
 * wall-clock thresholds meaningless), which reports but always exits 0.
 *
 * A tier-set mismatch — a baseline tier absent from the current report
 * or vice versa — is a structural failure, not a timing one: it is
 * reported by tier name and exits 3 even in soft mode, so a renamed or
 * dropped tier can never pass as "nothing regressed".
 *
 * Exit status: 0 pass, 1 below a band, 2 usage error, 3 tier-set
 * mismatch.
 *
 * Reports are read with the JSON parser: each element of "tiers" with
 * a string "tier" and a number at the compared field is one record,
 * however the document is laid out.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "tool_flags.h"

namespace {

constexpr const char *kHelpEpilogue =
    "\nexit status:\n"
    "  0  every gated tier is within its band (or soft mode absorbed\n"
    "     a timing miss)\n"
    "  1  a tier fell below --min-ratio or --min-abs (hard mode only)\n"
    "  2  usage error: unknown flag, missing/unreadable report, or\n"
    "     --tier names a tier the baseline does not have\n"
    "  3  tier-set mismatch: a tier present in exactly one of the two\n"
    "     reports. Structural, so it fails even in soft mode.\n";

struct TierReading
{
    std::string tier;
    double throughputPerS = 0.0; ///< the compared field's value
};

[[noreturn]] void
usageError(const std::string &message)
{
    std::fprintf(stderr, "perf-gate: %s\n", message.c_str());
    std::exit(2);
}

std::vector<TierReading>
readReport(const char *path, const char *field)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        usageError(std::string("cannot open ") + path);
    std::ostringstream text;
    text << in.rdbuf();
    chason::common::JsonValue report;
    std::string error;
    if (!chason::common::parseJson(text.str(), report, error))
        usageError(std::string(path) + ": " + error);
    std::vector<TierReading> out;
    const chason::common::JsonValue *tiers = report.find("tiers");
    if (tiers != nullptr) {
        for (const chason::common::JsonValue &tier : tiers->items) {
            TierReading r;
            const chason::common::JsonValue *value = tier.find(field);
            if (!tier.getString("tier", r.tier) || value == nullptr ||
                !value->isNumber())
                continue;
            r.throughputPerS = value->number;
            out.push_back(r);
        }
    }
    if (out.empty())
        usageError(std::string("no tier records in ") + path);
    return out;
}

bool
builtSanitized()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
    return true;
#else
    return false;
#endif
#else
    return false;
#endif
}

} // namespace

int
main(int argc, char **argv)
{
    const char *current_path = nullptr;
    const char *baseline_path = nullptr;
    const char *only_tier = nullptr;
    const char *field = "throughput_per_s";
    double min_ratio = 0.9;
    double min_abs = 0.0;
    bool soft = builtSanitized();
    using chason::tools::Flag;
    const Flag flags[] = {
        {"--current", Flag::Kind::kString, &current_path, "A.json",
         "freshly emitted BENCH report to gate"},
        {"--baseline", Flag::Kind::kString, &baseline_path, "B.json",
         "committed baseline report to compare against"},
        {"--min-ratio", Flag::Kind::kDouble, &min_ratio, "R",
         "per-tier floor on current/baseline (default 0.9)"},
        {"--min-abs", Flag::Kind::kDouble, &min_abs, "A",
         "absolute per-tier floor in the report's own unit"},
        {"--tier", Flag::Kind::kString, &only_tier, "NAME",
         "gate only this tier"},
        {"--field", Flag::Kind::kString, &field, "KEY",
         "per-tier field to compare (default throughput_per_s)"},
        {"--soft", Flag::Kind::kBool, &soft, nullptr,
         "report timing misses but exit 0 (implied under ASan/TSan)"},
    };
    const auto parse = chason::tools::parseFlags(
        argc, argv, flags, std::size(flags));
    if (parse.help) {
        chason::tools::printFlagHelp(stdout, "chason_perf_gate", flags,
                                     std::size(flags), kHelpEpilogue);
        return 0;
    }
    if (parse.error != nullptr || !parse.positional.empty()) {
        std::fprintf(stderr, "perf-gate: bad argument '%s' "
                     "(--help for usage)\n",
                     parse.error != nullptr ? parse.error
                                            : parse.positional.front());
        return 2;
    }
    if (current_path == nullptr || baseline_path == nullptr) {
        std::fprintf(stderr, "perf-gate: --current and --baseline are "
                     "required\n");
        return 2;
    }

    const std::vector<TierReading> current =
        readReport(current_path, field);
    const std::vector<TierReading> baseline =
        readReport(baseline_path, field);

    std::printf("perf-gate: %s vs %s (field %s, min ratio %.2f%s%s)\n",
                current_path, baseline_path, field, min_ratio,
                min_abs > 0.0 ? ", with absolute floor" : "",
                soft ? ", soft" : "");
    bool ok = true;
    bool mismatch = false;
    bool tier_seen = false;
    for (const TierReading &base : baseline) {
        if (only_tier != nullptr && base.tier != only_tier)
            continue;
        tier_seen = true;
        const TierReading *cur = nullptr;
        for (const TierReading &c : current) {
            if (c.tier == base.tier)
                cur = &c;
        }
        if (cur == nullptr) {
            std::printf("  %-7s MISSING from current report %s\n",
                        base.tier.c_str(), current_path);
            mismatch = true;
            continue;
        }
        const double ratio = base.throughputPerS > 0.0
            ? cur->throughputPerS / base.throughputPerS
            : 0.0;
        bool pass = ratio >= min_ratio;
        if (min_abs > 0.0 && cur->throughputPerS < min_abs)
            pass = false;
        std::printf("  %-7s %10.3g/s vs %10.3g/s  ratio %5.2fx  %s\n",
                    base.tier.c_str(), cur->throughputPerS,
                    base.throughputPerS, ratio, pass ? "ok" : "FAIL");
        ok = ok && pass;
    }
    // The other direction: a tier measured now but absent from the
    // baseline means the reports describe different ladders, and the
    // new tier is running ungated.
    for (const TierReading &cur : current) {
        if (only_tier != nullptr && cur.tier != only_tier)
            continue;
        bool in_baseline = false;
        for (const TierReading &base : baseline)
            in_baseline = in_baseline || base.tier == cur.tier;
        if (!in_baseline) {
            std::printf("  %-7s MISSING from baseline %s\n",
                        cur.tier.c_str(), baseline_path);
            mismatch = true;
        }
    }
    if (only_tier != nullptr && !tier_seen) {
        std::fprintf(stderr, "perf-gate: tier '%s' not in baseline\n",
                     only_tier);
        return 2;
    }
    if (mismatch) {
        // Structural, not timing: hard even in soft mode.
        std::printf("perf-gate: FAIL (tier sets disagree)\n");
        return 3;
    }
    if (!ok && soft) {
        std::printf("perf-gate: below band, but soft mode is on "
                    "(sanitizer or --soft) — not failing the run\n");
        return 0;
    }
    std::printf("perf-gate: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}
