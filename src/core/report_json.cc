/**
 * @file
 * JSON report emitter implementation.
 */

#include "core/report_json.h"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace chason {
namespace core {

namespace {

/** Minimal JSON object builder. */
class JsonObject
{
  public:
    JsonObject &
    field(const std::string &key, double value)
    {
        next();
        // JSON has no NaN/Inf; clamp to null.
        if (std::isfinite(value)) {
            char buf[48];
            std::snprintf(buf, sizeof(buf), "%.9g", value);
            out_ << '"' << jsonEscape(key) << "\":" << buf;
        } else {
            out_ << '"' << jsonEscape(key) << "\":null";
        }
        return *this;
    }

    JsonObject &
    field(const std::string &key, std::uint64_t value)
    {
        next();
        out_ << '"' << jsonEscape(key) << "\":" << value;
        return *this;
    }

    JsonObject &
    field(const std::string &key, const std::string &value)
    {
        next();
        out_ << '"' << jsonEscape(key) << "\":\"" << jsonEscape(value)
             << '"';
        return *this;
    }

    JsonObject &
    rawField(const std::string &key, const std::string &raw_json)
    {
        next();
        out_ << '"' << jsonEscape(key) << "\":" << raw_json;
        return *this;
    }

    JsonObject &
    field(const std::string &key, const std::vector<double> &values)
    {
        next();
        out_ << '"' << jsonEscape(key) << "\":[";
        for (std::size_t i = 0; i < values.size(); ++i) {
            if (i)
                out_ << ',';
            char buf[48];
            std::snprintf(buf, sizeof(buf), "%.9g", values[i]);
            out_ << buf;
        }
        out_ << ']';
        return *this;
    }

    std::string
    str() const
    {
        return "{" + out_.str() + "}";
    }

  private:
    std::ostringstream out_;
    bool first_ = true;

    void
    next()
    {
        if (!first_)
            out_ << ',';
        first_ = false;
    }
};

} // namespace

std::string
toJson(const arch::CycleBreakdown &cycles)
{
    JsonObject obj;
    obj.field("matrix_stream", cycles.matrixStream)
        .field("x_load", cycles.xLoad)
        .field("pipeline_fill", cycles.pipelineFill)
        .field("reduction", cycles.reduction)
        .field("writeback", cycles.writeback)
        .field("inst_stream", cycles.instStream)
        .field("launch", cycles.launch)
        .field("total", cycles.total());
    return obj.str();
}

std::string
toJson(const SpmvReport &report)
{
    JsonObject obj;
    obj.field("kind", std::string("spmv"))
        .field("accelerator", report.accelerator)
        .field("dataset", report.dataset)
        .field("rows", static_cast<std::uint64_t>(report.rows))
        .field("cols", static_cast<std::uint64_t>(report.cols))
        .field("nnz", static_cast<std::uint64_t>(report.nnz))
        .field("frequency_mhz", report.frequencyMhz)
        .field("cycles", report.cycles)
        .rawField("cycle_breakdown", toJson(report.cycleBreakdown))
        .field("latency_ms", report.latencyMs)
        .field("gflops", report.gflops)
        .field("power_w", report.powerW)
        .field("energy_efficiency", report.energyEfficiency)
        .field("bandwidth_efficiency", report.bandwidthEfficiency)
        .field("underutilization_percent",
               report.underutilizationPercent)
        .field("per_peg_underutilization",
               report.perPegUnderutilization)
        .field("matrix_stream_bytes", report.matrixStreamBytes)
        .field("total_bytes", report.totalBytes)
        .field("functional_error", report.functionalError);
    return obj.str();
}

std::string
toJson(const SpmmReport &report)
{
    JsonObject obj;
    obj.field("kind", std::string("spmm"))
        .field("accelerator", report.accelerator)
        .field("rows", static_cast<std::uint64_t>(report.rows))
        .field("cols", static_cast<std::uint64_t>(report.cols))
        .field("n_cols", static_cast<std::uint64_t>(report.nCols))
        .field("nnz", static_cast<std::uint64_t>(report.nnz))
        .field("tiles", static_cast<std::uint64_t>(report.tiles))
        .field("frequency_mhz", report.frequencyMhz)
        .field("cycles", report.cycles)
        .field("latency_ms", report.latencyMs)
        .field("gflops", report.gflops)
        .field("underutilization_percent",
               report.underutilizationPercent)
        .field("functional_error", report.functionalError);
    return obj.str();
}

std::string
toJson(const sched::ScheduleStats &stats)
{
    JsonObject obj;
    obj.field("nnz", static_cast<std::uint64_t>(stats.nnz))
        .field("total_slots",
               static_cast<std::uint64_t>(stats.totalSlots))
        .field("stalls", static_cast<std::uint64_t>(stats.stalls))
        .field("underutilization_percent",
               stats.underutilizationPercent)
        .field("per_peg_underutilization",
               stats.perPegUnderutilization)
        .field("stream_beats_per_channel",
               static_cast<std::uint64_t>(stats.streamBeatsPerChannel))
        .field("matrix_beats", stats.matrixBeats)
        .field("matrix_bytes", stats.matrixBytes)
        .field("phases", static_cast<std::uint64_t>(stats.phases));
    return obj.str();
}

std::string
toJson(const ScheduleCacheStats &stats)
{
    JsonObject obj;
    obj.field("hits", stats.hits)
        .field("misses", stats.misses)
        .field("hit_rate", stats.hitRate())
        .field("evictions", stats.evictions)
        .field("disk_hits", stats.diskHits)
        .field("disk_misses", stats.diskMisses)
        .field("persisted", stats.persisted)
        .field("corrupt", stats.corrupt)
        .field("entries", static_cast<std::uint64_t>(stats.entries))
        .field("bytes", static_cast<std::uint64_t>(stats.bytes))
        .field("budget_bytes",
               static_cast<std::uint64_t>(stats.budgetBytes));
    return obj.str();
}

std::string
toJson(const Comparison &comparison)
{
    JsonObject obj;
    obj.rawField("chason", toJson(comparison.chason))
        .rawField("serpens", toJson(comparison.serpens))
        .field("speedup", comparison.speedup())
        .field("transfer_reduction", comparison.transferReduction())
        .field("energy_gain", comparison.energyGain());
    return obj.str();
}

} // namespace core
} // namespace chason
