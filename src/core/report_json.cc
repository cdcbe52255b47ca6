/**
 * @file
 * JSON report emitter implementation.
 */

#include "core/report_json.h"

namespace chason {
namespace core {

namespace {

using common::JsonWriter;

/** Every report double: nine significant digits. */
constexpr const char *kNumber = "%.9g";

/** One compact object whose members @p fill writes. */
template <typename Fill>
std::string
object(Fill fill)
{
    std::string out;
    JsonWriter writer(out);
    writer.beginObject();
    fill(writer);
    writer.endObject();
    return out;
}

void
numbers(JsonWriter &w, const char *key, const std::vector<double> &values)
{
    w.key(key).beginArray();
    for (const double value : values)
        w.number(value, kNumber);
    w.endArray();
}

} // namespace

std::string
toJson(const arch::CycleBreakdown &cycles)
{
    return object([&](JsonWriter &w) {
        w.key("matrix_stream").integer(cycles.matrixStream)
            .key("x_load").integer(cycles.xLoad)
            .key("pipeline_fill").integer(cycles.pipelineFill)
            .key("reduction").integer(cycles.reduction)
            .key("writeback").integer(cycles.writeback)
            .key("inst_stream").integer(cycles.instStream)
            .key("launch").integer(cycles.launch)
            .key("total").integer(cycles.total());
    });
}

std::string
toJson(const SpmvReport &report)
{
    return object([&](JsonWriter &w) {
        w.key("kind").string("spmv")
            .key("accelerator").string(report.accelerator)
            .key("dataset").string(report.dataset)
            .key("rows").integer(report.rows)
            .key("cols").integer(report.cols)
            .key("nnz").integer(report.nnz)
            .key("frequency_mhz").number(report.frequencyMhz, kNumber)
            .key("cycles").integer(report.cycles)
            .key("cycle_breakdown").raw(toJson(report.cycleBreakdown))
            .key("latency_ms").number(report.latencyMs, kNumber)
            .key("gflops").number(report.gflops, kNumber)
            .key("power_w").number(report.powerW, kNumber)
            .key("energy_efficiency")
            .number(report.energyEfficiency, kNumber)
            .key("bandwidth_efficiency")
            .number(report.bandwidthEfficiency, kNumber)
            .key("underutilization_percent")
            .number(report.underutilizationPercent, kNumber);
        numbers(w, "per_peg_underutilization",
                report.perPegUnderutilization);
        w.key("matrix_stream_bytes").integer(report.matrixStreamBytes)
            .key("total_bytes").integer(report.totalBytes)
            .key("functional_error")
            .number(report.functionalError, kNumber);
    });
}

std::string
toJson(const SpmmReport &report)
{
    return object([&](JsonWriter &w) {
        w.key("kind").string("spmm")
            .key("accelerator").string(report.accelerator)
            .key("rows").integer(report.rows)
            .key("cols").integer(report.cols)
            .key("n_cols").integer(report.nCols)
            .key("nnz").integer(report.nnz)
            .key("tiles").integer(report.tiles)
            .key("frequency_mhz").number(report.frequencyMhz, kNumber)
            .key("cycles").integer(report.cycles)
            .key("latency_ms").number(report.latencyMs, kNumber)
            .key("gflops").number(report.gflops, kNumber)
            .key("underutilization_percent")
            .number(report.underutilizationPercent, kNumber)
            .key("functional_error")
            .number(report.functionalError, kNumber);
    });
}

std::string
toJson(const sched::ScheduleStats &stats)
{
    return object([&](JsonWriter &w) {
        w.key("nnz").integer(stats.nnz)
            .key("total_slots").integer(stats.totalSlots)
            .key("stalls").integer(stats.stalls)
            .key("underutilization_percent")
            .number(stats.underutilizationPercent, kNumber);
        numbers(w, "per_peg_underutilization",
                stats.perPegUnderutilization);
        w.key("stream_beats_per_channel")
            .integer(stats.streamBeatsPerChannel)
            .key("matrix_beats").integer(stats.matrixBeats)
            .key("matrix_bytes").integer(stats.matrixBytes)
            .key("phases").integer(stats.phases);
    });
}

std::string
toJson(const ScheduleCacheStats &stats)
{
    return object([&](JsonWriter &w) {
        w.key("hits").integer(stats.hits)
            .key("misses").integer(stats.misses)
            .key("hit_rate").number(stats.hitRate(), kNumber)
            .key("evictions").integer(stats.evictions)
            .key("disk_hits").integer(stats.diskHits)
            .key("disk_misses").integer(stats.diskMisses)
            .key("persisted").integer(stats.persisted)
            .key("corrupt").integer(stats.corrupt)
            .key("entries").integer(stats.entries)
            .key("bytes").integer(stats.bytes)
            .key("budget_bytes").integer(stats.budgetBytes);
    });
}

std::string
toJson(const Comparison &comparison)
{
    return object([&](JsonWriter &w) {
        w.key("chason").raw(toJson(comparison.chason))
            .key("serpens").raw(toJson(comparison.serpens))
            .key("speedup").number(comparison.speedup(), kNumber)
            .key("transfer_reduction")
            .number(comparison.transferReduction(), kNumber)
            .key("energy_gain").number(comparison.energyGain(), kNumber);
    });
}

} // namespace core
} // namespace chason
