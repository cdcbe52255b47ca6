/**
 * @file
 * PageRank on a SNAP-style graph, with the SpMV inner loop running on
 * the Chasoň simulator — the graph-analytics workload class the paper's
 * introduction motivates.
 *
 * The column-stochastic transition matrix is scheduled *once* with
 * CrHCS (offline preprocessing, as on the real board), planned and
 * analyzed once, and then executed every power iteration with a fresh
 * x vector via runScheduled(), which replays the one plan. The
 * result is verified against a CPU PageRank and the accelerator-side
 * time is compared to the Serpens baseline.
 *
 * Usage: pagerank [nodes] [edges-per-node] [iterations]
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "baselines/cpu_spmv.h"
#include "core/chason.h"

namespace {

using namespace chason;

/** Column-stochastic transition matrix M = A^T D^-1 of a digraph. */
sparse::CsrMatrix
transitionMatrix(const sparse::CsrMatrix &adj)
{
    // Out-degree of every node.
    std::vector<std::size_t> out_degree(adj.rows());
    for (std::uint32_t v = 0; v < adj.rows(); ++v)
        out_degree[v] = adj.rowNnz(v);

    sparse::CooMatrix coo(adj.cols(), adj.rows());
    for (std::uint32_t v = 0; v < adj.rows(); ++v) {
        for (std::size_t i = adj.rowPtr()[v]; i < adj.rowPtr()[v + 1];
             ++i) {
            coo.add(adj.colIdx()[i], v,
                    1.0f / static_cast<float>(out_degree[v]));
        }
    }
    return std::move(coo).toCsr();
}

} // namespace

int
main(int argc, char **argv)
{
    const std::uint32_t nodes =
        argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 4000;
    const std::uint32_t epn =
        argc > 2 ? static_cast<std::uint32_t>(std::atoi(argv[2])) : 8;
    const unsigned iterations = argc > 3
        ? static_cast<unsigned>(std::atoi(argv[3]))
        : 20;
    const float damping = 0.85f;

    Rng rng(2026);
    const sparse::CsrMatrix graph =
        sparse::preferentialAttachment(nodes, epn, rng);
    const sparse::CsrMatrix m = transitionMatrix(graph);
    std::printf("graph: %u nodes, %zu edges; transition matrix %s\n",
                nodes, graph.nnz(), m.describe().c_str());

    // Offline scheduling, once per matrix (the paper's preprocessing).
    core::Engine chason(core::Engine::Kind::Chason);
    core::Engine serpens(core::Engine::Kind::Serpens);
    const sched::Schedule chason_schedule = chason.schedule(m);
    const sched::Schedule serpens_schedule = serpens.schedule(m);
    const sched::ScheduleStats chason_stats =
        sched::analyze(chason_schedule);
    const sched::ScheduleStats serpens_stats =
        sched::analyze(serpens_schedule);
    const arch::StreamPlan chason_plan(
        chason_schedule, chason.accelerator().migrationDepth());
    const arch::StreamPlan serpens_plan(
        serpens_schedule, serpens.accelerator().migrationDepth());

    std::vector<float> rank(nodes, 1.0f / static_cast<float>(nodes));
    const float teleport = (1.0f - damping) / static_cast<float>(nodes);

    // Dangling nodes (no out-edges) redistribute their mass uniformly.
    std::vector<std::uint32_t> dangling;
    for (std::uint32_t v = 0; v < nodes; ++v) {
        if (graph.rowNnz(v) == 0)
            dangling.push_back(v);
    }

    double chason_ms = 0.0, serpens_ms = 0.0;
    const baselines::CpuSpmv cpu;
    std::vector<float> cpu_rank = rank;

    for (unsigned it = 0; it < iterations; ++it) {
        // Accelerator iteration (also measured for Serpens).
        std::vector<float> next;
        const core::SpmvReport r =
            chason.runScheduled(chason_schedule, chason_stats, chason_plan,
                                m, rank, "pagerank", &next);
        chason_ms += r.latencyMs;
        serpens_ms += serpens
                          .runScheduled(serpens_schedule, serpens_stats,
                                        serpens_plan, m, rank, "pagerank")
                          .latencyMs;
        float dangling_mass = 0.0f;
        for (std::uint32_t v : dangling)
            dangling_mass += rank[v];
        const float spread =
            damping * dangling_mass / static_cast<float>(nodes);
        for (float &v : next)
            v = damping * v + teleport + spread;
        rank = std::move(next);

        // CPU reference iteration.
        float cpu_dangling = 0.0f;
        for (std::uint32_t v : dangling)
            cpu_dangling += cpu_rank[v];
        const float cpu_spread =
            damping * cpu_dangling / static_cast<float>(nodes);
        std::vector<float> cpu_next = cpu.run(m, cpu_rank);
        for (float &v : cpu_next)
            v = damping * v + teleport + cpu_spread;
        cpu_rank = std::move(cpu_next);
    }

    // Agreement with the CPU reference.
    double worst = 0.0, sum = 0.0;
    for (std::uint32_t v = 0; v < nodes; ++v) {
        worst = std::max(worst, std::abs(static_cast<double>(rank[v]) -
                                         cpu_rank[v]));
        sum += rank[v];
    }
    std::printf("after %u iterations: |rank|_1 = %.4f, max deviation vs "
                "CPU %.2e\n",
                iterations, sum, worst);

    // Top-5 ranked nodes.
    std::vector<std::uint32_t> order(nodes);
    for (std::uint32_t v = 0; v < nodes; ++v)
        order[v] = v;
    std::partial_sort(order.begin(), order.begin() + 5, order.end(),
                      [&rank](std::uint32_t a, std::uint32_t b) {
                          return rank[a] > rank[b];
                      });
    std::printf("top nodes:");
    for (unsigned k = 0; k < 5; ++k)
        std::printf(" %u (%.4f)", order[k], rank[order[k]]);
    std::printf("\n");

    std::printf("accelerator time for %u iterations: Chasoň %.3f ms, "
                "Serpens %.3f ms (%.2fx)\n",
                iterations, chason_ms, serpens_ms,
                serpens_ms / chason_ms);
    return 0;
}
