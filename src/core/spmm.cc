/**
 * @file
 * SpMM engine implementation.
 */

#include "core/spmm.h"

#include <algorithm>
#include <cmath>

#include "arch/stream_soa.h"
#include "common/logging.h"

namespace chason {
namespace core {

namespace {

/** Apply the SpMM channel allocation to a base architecture config. */
arch::ArchConfig
spmmArchConfig(arch::ArchConfig base, const SpmmConfig &spmm)
{
    base.sched.channels = spmm.aChannels;
    return base;
}

} // namespace

SpmmEngine::SpmmEngine(Engine::Kind kind, SpmmConfig spmm_config,
                       arch::ArchConfig arch_config)
    : spmmConfig_(spmm_config),
      engine_(kind, spmmArchConfig(arch_config, spmm_config))
{
    chason_assert(spmmConfig_.aChannels >= 1 &&
                      spmmConfig_.bChannels >= 1 &&
                      spmmConfig_.cChannels >= 1,
                  "SpMM needs at least one channel per role");
    chason_assert(spmmConfig_.usedChannels() +
                          /* x spare */ 0 <=
                      arch_config.hbm.totalChannels,
                  "SpMM channel allocation (%u) exceeds the platform",
                  spmmConfig_.usedChannels());
    chason_assert(spmmConfig_.bTileCols >= 1, "empty B tile");
}

SpmmReport
SpmmEngine::run(const sparse::CsrMatrix &a, const std::vector<float> &b,
                std::uint32_t n_cols, std::vector<float> *c_out,
                float alpha, float beta,
                const std::vector<float> *c_in) const
{
    chason_assert(b.size() ==
                      static_cast<std::size_t>(a.cols()) * n_cols,
                  "B has %zu entries, expected %zu", b.size(),
                  static_cast<std::size_t>(a.cols()) * n_cols);
    chason_assert(n_cols >= 1, "B needs at least one column");
    chason_assert(beta == 0.0f ||
                      (c_in &&
                       c_in->size() ==
                           static_cast<std::size_t>(a.rows()) * n_cols),
                  "beta != 0 requires a C_in of rows x n_cols entries");

    const sched::Schedule schedule = engine_.schedule(a);
    const sched::ScheduleStats stats = sched::analyze(schedule);
    const arch::Accelerator &accel = engine_.accelerator();
    const arch::Timeline spmv = accel.timeline(schedule, nullptr);
    const double freq = accel.frequencyMhz();
    const double mem_factor = spmv.memStallFactor;

    // --- Functional execution: one plan, replayed once per B column,
    // as the accelerator streams A once per B tile. ---
    const arch::StreamPlan plan(schedule, accel.migrationDepth());
    std::vector<float> c(static_cast<std::size_t>(a.rows()) * n_cols,
                         0.0f);
    std::vector<double> reference = spmmReference(a, b, n_cols);
    for (std::size_t i = 0; i < reference.size(); ++i) {
        reference[i] *= alpha;
        if (beta != 0.0f)
            reference[i] += static_cast<double>(beta) * (*c_in)[i];
    }
    double worst = 0.0;
    for (std::uint32_t j = 0; j < n_cols; ++j) {
        const std::vector<float> column(
            b.begin() + static_cast<std::ptrdiff_t>(j) * a.cols(),
            b.begin() + static_cast<std::ptrdiff_t>(j + 1) * a.cols());
        arch::SpmvParams params;
        params.alpha = alpha;
        params.beta = beta;
        std::vector<float> c_col;
        if (beta != 0.0f) {
            c_col.assign(
                c_in->begin() + static_cast<std::ptrdiff_t>(j) * a.rows(),
                c_in->begin() +
                    static_cast<std::ptrdiff_t>(j + 1) * a.rows());
            params.yIn = &c_col;
        }
        const arch::RunResult run =
            accel.runPlanned(schedule, plan, column, params);
        std::copy(run.y.begin(), run.y.end(),
                  c.begin() + static_cast<std::ptrdiff_t>(j) * a.rows());
        std::vector<double> ref_col(
            reference.begin() + static_cast<std::ptrdiff_t>(j) * a.rows(),
            reference.begin() +
                static_cast<std::ptrdiff_t>(j + 1) * a.rows());
        worst = std::max(worst,
                         sparse::maxRelativeError(run.y, ref_col));
    }

    // --- Timing: the tile model. ---
    const unsigned tiles =
        (n_cols + spmmConfig_.bTileCols - 1) / spmmConfig_.bTileCols;

    // One tile streams the whole A schedule once; the B tile for the
    // next round is double-buffered behind it (like the x window in
    // SpMV), so only the first tile's B load is exposed.
    const arch::CycleBreakdown &spmv_cycles = spmv.cycles;
    const std::uint64_t per_tile_stream =
        spmv_cycles.matrixStream + spmv_cycles.pipelineFill +
        spmv_cycles.instStream;

    // B tile: cols() rows x bTileCols FP32 over bChannels channels.
    const std::uint64_t b_tile_words =
        static_cast<std::uint64_t>(a.cols()) * spmmConfig_.bTileCols;
    const std::uint64_t b_tile_beats =
        (b_tile_words + 16 * spmmConfig_.bChannels - 1) /
        (16 * spmmConfig_.bChannels);
    const std::uint64_t b_load =
        arch::streamCycles(b_tile_beats, mem_factor);

    // Reduction happens once per tile (the ScUG holds bTileCols partial
    // sums per row, swept together through the widened adder tree).
    const std::uint64_t reduction = spmv_cycles.reduction;

    // C writeback: rows x bTileCols FP32 per tile over cChannels.
    const std::uint64_t c_tile_words =
        static_cast<std::uint64_t>(a.rows()) * spmmConfig_.bTileCols;
    const std::uint64_t c_tile_beats =
        (c_tile_words + 16 * spmmConfig_.cChannels - 1) /
        (16 * spmmConfig_.cChannels);
    const std::uint64_t c_write =
        arch::streamCycles(c_tile_beats, mem_factor);

    const std::uint64_t cycles = b_load /* first tile exposed */
        + tiles * (per_tile_stream +
                   std::max<std::uint64_t>(reduction, b_load) + c_write)
        + spmv_cycles.launch;

    SpmmReport report;
    report.accelerator = accel.name();
    report.rows = a.rows();
    report.cols = a.cols();
    report.nCols = n_cols;
    report.nnz = a.nnz();
    report.tiles = tiles;
    report.frequencyMhz = freq;
    report.cycles = cycles;
    report.latencyMs = static_cast<double>(cycles) / freq / 1e3;
    const double flops =
        2.0 * static_cast<double>(a.nnz()) * static_cast<double>(n_cols);
    report.gflops = flops / (report.latencyMs * 1e6);
    report.underutilizationPercent = stats.underutilizationPercent;
    report.functionalError = worst;

    if (c_out)
        *c_out = std::move(c);
    return report;
}

std::vector<double>
spmmReference(const sparse::CsrMatrix &a, const std::vector<float> &b,
              std::uint32_t n_cols)
{
    chason_assert(b.size() ==
                      static_cast<std::size_t>(a.cols()) * n_cols,
                  "B size mismatch");
    std::vector<double> c(static_cast<std::size_t>(a.rows()) * n_cols,
                          0.0);
    for (std::uint32_t j = 0; j < n_cols; ++j) {
        const std::size_t b_off = static_cast<std::size_t>(j) * a.cols();
        const std::size_t c_off = static_cast<std::size_t>(j) * a.rows();
        for (std::uint32_t r = 0; r < a.rows(); ++r) {
            double acc = 0.0;
            for (std::size_t i = a.rowPtr()[r]; i < a.rowPtr()[r + 1];
                 ++i) {
                acc += static_cast<double>(a.values()[i]) *
                    b[b_off + a.colIdx()[i]];
            }
            c[c_off + r] = acc;
        }
    }
    return c;
}

} // namespace core
} // namespace chason
