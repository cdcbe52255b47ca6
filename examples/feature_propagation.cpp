/**
 * @file
 * Graph feature propagation (one GNN-style layer) with the Section 7.2
 * SpMM extension: H' = Â * H, where Â is the symmetrically normalized
 * adjacency matrix of a graph and H an n x d dense feature matrix.
 *
 * Demonstrates the SpMM engine end to end: the adjacency is scheduled
 * once with CrHCS, the dense features flow through in 8-column tiles,
 * and the result is checked against a double-precision reference.
 *
 * Usage: feature_propagation [nodes] [features] [layers]
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "core/chason.h"
#include "core/spmm.h"

namespace {

using namespace chason;

/** D^-1/2 (A + I) D^-1/2: the GCN propagation operator. */
sparse::CsrMatrix
normalizedAdjacency(const sparse::CsrMatrix &adj)
{
    sparse::CooMatrix with_self(adj.rows(), adj.cols());
    for (std::uint32_t r = 0; r < adj.rows(); ++r) {
        with_self.add(r, r, 1.0f);
        for (std::size_t i = adj.rowPtr()[r]; i < adj.rowPtr()[r + 1];
             ++i) {
            with_self.add(r, adj.colIdx()[i], 1.0f);
        }
    }
    sparse::CsrMatrix a = std::move(with_self).toCsr();

    std::vector<float> inv_sqrt_deg(a.rows());
    for (std::uint32_t r = 0; r < a.rows(); ++r)
        inv_sqrt_deg[r] =
            1.0f / std::sqrt(static_cast<float>(a.rowNnz(r)));

    sparse::CooMatrix norm(a.rows(), a.cols());
    for (std::uint32_t r = 0; r < a.rows(); ++r) {
        for (std::size_t i = a.rowPtr()[r]; i < a.rowPtr()[r + 1]; ++i) {
            const std::uint32_t c = a.colIdx()[i];
            norm.add(r, c, inv_sqrt_deg[r] * inv_sqrt_deg[c]);
        }
    }
    return std::move(norm).toCsr();
}

} // namespace

int
main(int argc, char **argv)
{
    const std::uint32_t nodes =
        argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 3000;
    const std::uint32_t features =
        argc > 2 ? static_cast<std::uint32_t>(std::atoi(argv[2])) : 16;
    const unsigned layers =
        argc > 3 ? static_cast<unsigned>(std::atoi(argv[3])) : 2;

    Rng rng(7);
    const sparse::CsrMatrix graph =
        sparse::preferentialAttachment(nodes, 6, rng);
    // Symmetrize so propagation flows both ways.
    sparse::CooMatrix sym(nodes, nodes);
    for (std::uint32_t r = 0; r < nodes; ++r) {
        for (std::size_t i = graph.rowPtr()[r]; i < graph.rowPtr()[r + 1];
             ++i) {
            sym.addSymmetric(r, graph.colIdx()[i], 1.0f);
        }
    }
    const sparse::CsrMatrix a = normalizedAdjacency(std::move(sym).toCsr());
    std::printf("propagation operator: %s\n", a.describe().c_str());

    // Random initial features, column-major.
    std::vector<float> h(static_cast<std::size_t>(nodes) * features);
    for (float &v : h)
        v = rng.nextFloat(0.1f, 1.0f);

    core::SpmmEngine engine(core::Engine::Kind::Chason);
    double total_ms = 0.0;
    for (unsigned layer = 0; layer < layers; ++layer) {
        std::vector<float> next;
        const core::SpmmReport r = engine.run(a, h, features, &next);
        total_ms += r.latencyMs;
        std::printf("layer %u: %.3f ms, %.2f GFLOPS, %u tiles, "
                    "functional error %.3f\n",
                    layer, r.latencyMs, r.gflops, r.tiles,
                    r.functionalError);
        h = std::move(next);
    }

    // Feature smoothing sanity: values remain bounded and positive.
    double lo = 1e30, hi = -1e30;
    for (float v : h) {
        lo = std::min<double>(lo, v);
        hi = std::max<double>(hi, v);
    }
    std::printf("after %u layers: feature range [%.4f, %.4f], modelled "
                "accelerator time %.3f ms\n",
                layers, lo, hi, total_ms);
    return 0;
}
