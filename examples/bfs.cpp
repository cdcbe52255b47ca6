/**
 * @file
 * Breadth-first search as iterated SpMV — the linear-algebra
 * formulation of graph traversal (the graph-problems workload class
 * from the paper's introduction).
 *
 * Each level is one frontier expansion: f_{k+1} = A^T f_k restricted to
 * unvisited vertices. The (OR, AND) boolean semiring is emulated on the
 * FP32 datapath with 0/1 indicator vectors and a clamp after each
 * multiply — any positive partial sum means "reached". The transpose is
 * built once with the CSC converter, and the schedule cache's entry
 * (schedule, statistics and plan) is reused across levels.
 *
 * Usage: bfs [nodes] [edges-per-node] [source]
 */

#include <cstdio>
#include <cstdlib>
#include <queue>
#include <utility>

#include "core/chason.h"

namespace {

using namespace chason;

/** Reference BFS levels on the CPU for verification. */
std::vector<int>
cpuBfsLevels(const sparse::CsrMatrix &adj, std::uint32_t source)
{
    std::vector<int> level(adj.rows(), -1);
    std::queue<std::uint32_t> frontier;
    level[source] = 0;
    frontier.push(source);
    while (!frontier.empty()) {
        const std::uint32_t v = frontier.front();
        frontier.pop();
        for (std::size_t i = adj.rowPtr()[v]; i < adj.rowPtr()[v + 1];
             ++i) {
            const std::uint32_t w = adj.colIdx()[i];
            if (level[w] < 0) {
                level[w] = level[v] + 1;
                frontier.push(w);
            }
        }
    }
    return level;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::uint32_t nodes =
        argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 3000;
    const std::uint32_t epn =
        argc > 2 ? static_cast<std::uint32_t>(std::atoi(argv[2])) : 6;
    // Preferential-attachment edges point from newer to older nodes, so
    // a late node makes an interesting source (it can reach most of the
    // graph through the early hubs).
    const std::uint32_t source = argc > 3
        ? static_cast<std::uint32_t>(std::atoi(argv[3]))
        : nodes - 1;

    Rng rng(99);
    sparse::CsrMatrix adj = sparse::preferentialAttachment(nodes, epn,
                                                           rng);
    // Pattern matrix: all weights 1 for the boolean semiring emulation.
    {
        sparse::CooMatrix ones(adj.rows(), adj.cols());
        for (std::uint32_t r = 0; r < adj.rows(); ++r) {
            for (std::size_t i = adj.rowPtr()[r];
                 i < adj.rowPtr()[r + 1]; ++i) {
                ones.add(r, adj.colIdx()[i], 1.0f);
            }
        }
        adj = std::move(ones).toCsr();
    }
    std::printf("graph: %s, source %u\n", adj.describe().c_str(),
                source);

    // Frontier expansion needs A^T f (push to out-neighbours of the
    // frontier when f indexes by destination). The CSC view computes it
    // on the host for cross-checking; the accelerator runs on an
    // explicitly transposed CSR.
    const sparse::CscMatrix csc = sparse::CscMatrix::fromCsr(adj);
    const sparse::CsrMatrix adj_t = adj.transpose();

    core::Engine engine(core::Engine::Kind::Chason);
    core::ScheduleCache cache;

    std::vector<int> level(nodes, -1);
    std::vector<float> frontier(nodes, 0.0f);
    level[source] = 0;
    frontier[source] = 1.0f;

    double accel_ms = 0.0;
    std::uint32_t visited = 1;
    int depth = 0;
    while (true) {
        std::vector<float> reached;
        const auto entry = cache.lookup(engine.scheduler(), adj_t);
        accel_ms += engine
                        .runScheduled(entry->schedule, entry->stats,
                                      entry->plan(), adj_t, frontier,
                                      "bfs", &reached)
                        .latencyMs;
        // Host-side cross-check through the CSC transposed kernel.
        const std::vector<float> host = csc.spmvTransposed(frontier);
        for (std::uint32_t v = 0; v < nodes; ++v) {
            chason_assert((host[v] > 0.0f) == (reached[v] > 0.0f),
                          "accelerator and CSC disagree at vertex %u",
                          v);
        }
        // Boolean clamp + visited mask: the next frontier.
        bool any = false;
        std::vector<float> next(nodes, 0.0f);
        for (std::uint32_t v = 0; v < nodes; ++v) {
            if (reached[v] > 0.0f && level[v] < 0) {
                level[v] = depth + 1;
                next[v] = 1.0f;
                any = true;
                ++visited;
            }
        }
        if (!any)
            break;
        frontier = std::move(next);
        ++depth;
    }

    // Verify against the queue-based CPU BFS.
    const std::vector<int> reference = cpuBfsLevels(adj, source);
    std::uint32_t mismatches = 0;
    for (std::uint32_t v = 0; v < nodes; ++v)
        mismatches += level[v] != reference[v];

    std::printf("visited %u/%u vertices in %d levels; mismatches vs CPU "
                "BFS: %u\n",
                visited, nodes, depth, mismatches);
    const core::ScheduleCacheStats stats = cache.stats();
    std::printf("schedule cache: %llu hits / %llu misses; modelled "
                "accelerator time %.3f ms\n",
                static_cast<unsigned long long>(stats.hits),
                static_cast<unsigned long long>(stats.misses),
                accel_ms);
    return mismatches == 0 ? 0 : 1;
}
