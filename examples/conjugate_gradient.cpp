/**
 * @file
 * Conjugate-gradient solve of a 2-D Poisson system with the SpMV inner
 * loop on the Chasoň simulator — the scientific-computing workload
 * class from the paper's introduction.
 *
 * CG is SpMV-bound: one A*p per iteration plus vector updates. The
 * Poisson matrix is SPD, banded and perfectly load balanced, so this
 * example also demonstrates the regime where Serpens and Chasoň tie
 * (no stalls to migrate) — the honest flip side of Fig. 15.
 *
 * Usage: conjugate_gradient [grid] [max-iterations]
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "core/chason.h"

namespace {

using namespace chason;

double
dot(const std::vector<float> &a, const std::vector<float> &b)
{
    double acc = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        acc += static_cast<double>(a[i]) * b[i];
    return acc;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::uint32_t grid =
        argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 96;
    const unsigned max_iters = argc > 2
        ? static_cast<unsigned>(std::atoi(argv[2]))
        : 200;

    const sparse::CsrMatrix a = sparse::poisson2d(grid);
    const std::uint32_t n = a.rows();
    std::printf("2-D Poisson system: %s (grid %ux%u)\n",
                a.describe().c_str(), grid, grid);

    // Right-hand side: a point source in the middle of the domain.
    std::vector<float> b(n, 0.0f);
    b[(grid / 2) * grid + grid / 2] = 1.0f;

    core::Engine engine(core::Engine::Kind::Chason);
    const sched::Schedule schedule = engine.schedule(a);
    const sched::ScheduleStats stats = sched::analyze(schedule);
    const arch::StreamPlan plan(schedule,
                                engine.accelerator().migrationDepth());
    std::printf("CrHCS schedule: %zu beats/channel, underutilization "
                "%.1f%% (balanced stencils barely stall)\n",
                stats.streamBeatsPerChannel,
                stats.underutilizationPercent);

    // Standard CG on x = A^-1 b.
    std::vector<float> x(n, 0.0f);
    std::vector<float> r = b; // residual (x0 = 0)
    std::vector<float> p = r;
    double rs_old = dot(r, r);
    const double tol2 = 1e-10;

    double accel_ms = 0.0;
    unsigned it = 0;
    for (; it < max_iters && rs_old > tol2; ++it) {
        std::vector<float> ap;
        accel_ms += engine
                        .runScheduled(schedule, stats, plan, a, p, "cg",
                                      &ap)
                        .latencyMs;
        const double alpha = rs_old / dot(p, ap);
        for (std::uint32_t i = 0; i < n; ++i) {
            x[i] += static_cast<float>(alpha) * p[i];
            r[i] -= static_cast<float>(alpha) * ap[i];
        }
        const double rs_new = dot(r, r);
        const double beta = rs_new / rs_old;
        for (std::uint32_t i = 0; i < n; ++i)
            p[i] = r[i] + static_cast<float>(beta) * p[i];
        rs_old = rs_new;
        if (it % 25 == 0)
            std::printf("  iter %3u: ||r||^2 = %.3e\n", it, rs_old);
    }
    std::printf("converged after %u iterations, ||r||^2 = %.3e\n", it,
                rs_old);

    // Verify the solution truly satisfies the system.
    const std::vector<double> ax = sparse::spmvReference(a, x);
    double worst = 0.0;
    for (std::uint32_t i = 0; i < n; ++i)
        worst = std::max(worst, std::abs(ax[i] - b[i]));
    std::printf("max |Ax - b| = %.3e\n", worst);
    std::printf("modelled accelerator time: %.3f ms over %u SpMV calls "
                "(%.1f us each)\n",
                accel_ms, it, 1e3 * accel_ms / std::max(1u, it));
    return 0;
}
