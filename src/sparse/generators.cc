/**
 * @file
 * Synthetic generator implementations.
 */

#include "sparse/generators.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"

namespace chason {
namespace sparse {

float
drawValue(Rng &rng, ValueDistribution dist)
{
    switch (dist) {
      case ValueDistribution::PositiveUniform:
        return rng.nextFloat(0.1f, 1.0f);
      case ValueDistribution::SignedUniform:
        return rng.nextFloat(-1.0f, 1.0f);
      case ValueDistribution::Ones:
        return 1.0f;
    }
    chason_panic("unreachable value distribution");
}

CsrMatrix
erdosRenyi(std::uint32_t rows, std::uint32_t cols, std::size_t nnz_target,
           Rng &rng, ValueDistribution dist)
{
    chason_assert(rows > 0 && cols > 0, "empty matrix shape");
    CooMatrix coo(rows, cols);
    coo.reserve(nnz_target);
    for (std::size_t i = 0; i < nnz_target; ++i) {
        const auto r = static_cast<std::uint32_t>(rng.nextBounded(rows));
        const auto c = static_cast<std::uint32_t>(rng.nextBounded(cols));
        coo.add(r, c, drawValue(rng, dist));
    }
    return std::move(coo).toCsr();
}

CsrMatrix
rmat(std::uint32_t scale, std::size_t nnz_target, Rng &rng, double a,
     double b, double c, ValueDistribution dist)
{
    chason_assert(scale >= 1 && scale <= 26, "rmat scale out of range");
    const double d = 1.0 - a - b - c;
    chason_assert(d >= 0.0, "rmat probabilities exceed 1");
    const std::uint32_t n = 1u << scale;

    // Each bit picks a quadrant by comparing p = nextDouble() against
    // a, a + b and a + b + c: top-left below a, top-right below a + b,
    // bottom-left below a + b + c, else bottom-right. The comparisons
    // run on p's integer k against Rng::unitThreshold of each bound,
    // which is exact, and set the bits through masks instead of an
    // unpredictable three-way branch.
    const std::uint64_t t_a = Rng::unitThreshold(a);
    const std::uint64_t t_ab = Rng::unitThreshold(a + b);
    const std::uint64_t t_abc = Rng::unitThreshold(a + b + c);

    CooMatrix coo(n, n);
    coo.reserve(nnz_target);
    for (std::size_t i = 0; i < nnz_target; ++i) {
        std::uint32_t row = 0, col = 0;
        for (std::uint32_t bit = n >> 1; bit > 0; bit >>= 1) {
            const std::uint64_t k = rng.nextUnitBits();
            const std::uint32_t past_a = 0u - std::uint32_t{k >= t_a};
            const std::uint32_t below_ab = 0u - std::uint32_t{k < t_ab};
            const std::uint32_t below_abc = 0u - std::uint32_t{k < t_abc};
            // Right half: top-right or bottom-right. Bottom half:
            // bottom-left or bottom-right.
            col |= bit & past_a & (below_ab | ~below_abc);
            row |= bit & past_a & ~below_ab;
        }
        coo.add(row, col, drawValue(rng, dist));
    }
    return std::move(coo).toCsr();
}

CsrMatrix
preferentialAttachment(std::uint32_t nodes, std::uint32_t edges_per_node,
                       Rng &rng, ValueDistribution dist)
{
    chason_assert(nodes >= 2, "need at least two nodes");
    chason_assert(edges_per_node >= 1, "need at least one edge per node");

    // Repeated-targets list implements the degree-proportional sampling.
    std::vector<std::uint32_t> targets;
    targets.reserve(static_cast<std::size_t>(nodes) * edges_per_node * 2);
    targets.push_back(0);

    CooMatrix coo(nodes, nodes);
    for (std::uint32_t v = 1; v < nodes; ++v) {
        // Out-degrees follow a truncated Pareto (shape 1.25) so rows are
        // heavy-tailed like real SNAP graphs: hubs reach into the
        // hundreds-to-thousands (wiki-Vote's max out-degree is ~900),
        // which is what drives intra-channel scheduling stalls.
        const double u = std::max(rng.nextDouble(), 1e-9);
        const double pareto =
            (static_cast<double>(edges_per_node) * 0.3) /
            std::pow(u, 1.0 / 1.25);
        const auto drawn = static_cast<std::uint32_t>(
            std::min(pareto, static_cast<double>(nodes) / 3.0));
        const std::uint32_t fanout =
            std::min({std::max(drawn, 1u), v, nodes / 3 + 1});
        for (std::uint32_t e = 0; e < fanout; ++e) {
            const std::uint32_t t =
                targets[rng.nextBounded(targets.size())];
            coo.add(v, t, drawValue(rng, dist));
            targets.push_back(t);
        }
        targets.push_back(v);
    }
    return std::move(coo).toCsr();
}

CsrMatrix
banded(std::uint32_t n, std::uint32_t bandwidth, double fill, Rng &rng,
       ValueDistribution dist)
{
    chason_assert(n > 0, "empty matrix");
    chason_assert(fill >= 0.0 && fill <= 1.0, "fill out of [0,1]");
    CooMatrix coo(n, n);
    for (std::uint32_t r = 0; r < n; ++r) {
        const std::uint32_t lo = r >= bandwidth ? r - bandwidth : 0;
        const std::uint32_t hi = std::min<std::uint64_t>(
            static_cast<std::uint64_t>(r) + bandwidth, n - 1);
        for (std::uint32_t c = lo; c <= hi; ++c) {
            if (c == r || rng.nextBool(fill))
                coo.add(r, c, drawValue(rng, dist));
        }
    }
    return std::move(coo).toCsr();
}

CsrMatrix
arrowBanded(std::uint32_t n, std::uint32_t bandwidth, double fill,
            std::uint32_t dense_rows, Rng &rng, ValueDistribution dist)
{
    chason_assert(dense_rows <= n, "more dense rows than rows");
    CooMatrix coo(n, n);
    // Dense border rows, evenly spaced so they land on distinct lanes.
    std::vector<bool> is_dense(n, false);
    for (std::uint32_t k = 0; k < dense_rows; ++k) {
        const std::uint32_t r = static_cast<std::uint32_t>(
            (static_cast<std::uint64_t>(k) * n + n / 2) / dense_rows) %
            n;
        is_dense[r] = true;
    }
    for (std::uint32_t r = 0; r < n; ++r) {
        if (is_dense[r]) {
            for (std::uint32_t c = 0; c < n; ++c)
                coo.add(r, c, drawValue(rng, dist));
            continue;
        }
        const std::uint32_t lo = r >= bandwidth ? r - bandwidth : 0;
        const std::uint32_t hi = std::min<std::uint64_t>(
            static_cast<std::uint64_t>(r) + bandwidth, n - 1);
        for (std::uint32_t c = lo; c <= hi; ++c) {
            if (c == r || rng.nextBool(fill))
                coo.add(r, c, drawValue(rng, dist));
        }
    }
    return std::move(coo).toCsr();
}

CsrMatrix
blockDiagonal(std::uint32_t n, std::uint32_t block_size, double block_fill,
              double coupling_fill, Rng &rng, ValueDistribution dist)
{
    chason_assert(n > 0 && block_size > 0, "bad block-diagonal shape");
    CooMatrix coo(n, n);
    for (std::uint32_t r = 0; r < n; ++r) {
        const std::uint32_t block = r / block_size;
        const std::uint32_t b_lo = block * block_size;
        const std::uint32_t b_hi =
            std::min<std::uint64_t>(
                static_cast<std::uint64_t>(b_lo) + block_size, n) - 1;
        for (std::uint32_t c = b_lo; c <= b_hi; ++c) {
            if (c == r || rng.nextBool(block_fill))
                coo.add(r, c, drawValue(rng, dist));
        }
        // Sparse coupling to the neighbouring block (phase linkage).
        if (b_hi + 1 < n) {
            const std::uint32_t next_hi = std::min<std::uint64_t>(
                static_cast<std::uint64_t>(b_hi) + 1 + block_size, n) - 1;
            for (std::uint32_t c = b_hi + 1; c <= next_hi; ++c) {
                if (rng.nextBool(coupling_fill))
                    coo.add(r, c, drawValue(rng, dist));
            }
        }
    }
    return std::move(coo).toCsr();
}

CsrMatrix
mycielskian(unsigned k, ValueDistribution dist)
{
    chason_assert(k >= 2 && k <= 14, "mycielskian order out of range");

    // Edge list of M_2 = K_2.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges = {{0, 1}};
    std::uint32_t n = 2;

    for (unsigned step = 2; step < k; ++step) {
        // Vertices: originals v_0..v_{n-1}, shadows u_i = n + i, apex
        // w = 2n.
        std::vector<std::pair<std::uint32_t, std::uint32_t>> next;
        next.reserve(edges.size() * 3 + n);
        for (auto [x, y] : edges) {
            next.emplace_back(x, y);         // original edge
            next.emplace_back(n + x, y);     // shadow of x to neighbour y
            next.emplace_back(x, n + y);     // shadow of y to neighbour x
        }
        const std::uint32_t w = 2 * n;
        for (std::uint32_t i = 0; i < n; ++i)
            next.emplace_back(n + i, w);
        edges = std::move(next);
        n = 2 * n + 1;
    }

    Rng value_rng(0x4d59u + k); // deterministic per order
    CooMatrix coo(n, n);
    for (auto [x, y] : edges)
        coo.addSymmetric(x, y, drawValue(value_rng, dist));
    return std::move(coo).toCsr();
}

CsrMatrix
poisson2d(std::uint32_t grid)
{
    chason_assert(grid >= 2, "poisson2d needs a grid of at least 2x2");
    const std::uint32_t n = grid * grid;
    CooMatrix coo(n, n);
    auto idx = [grid](std::uint32_t i, std::uint32_t j) {
        return i * grid + j;
    };
    for (std::uint32_t i = 0; i < grid; ++i) {
        for (std::uint32_t j = 0; j < grid; ++j) {
            const std::uint32_t me = idx(i, j);
            coo.add(me, me, 4.0f);
            if (i > 0)
                coo.add(me, idx(i - 1, j), -1.0f);
            if (i + 1 < grid)
                coo.add(me, idx(i + 1, j), -1.0f);
            if (j > 0)
                coo.add(me, idx(i, j - 1), -1.0f);
            if (j + 1 < grid)
                coo.add(me, idx(i, j + 1), -1.0f);
        }
    }
    return std::move(coo).toCsr();
}

CsrMatrix
zipfRows(std::uint32_t rows, std::uint32_t cols, std::size_t nnz_target,
         double s, Rng &rng, ValueDistribution dist)
{
    chason_assert(rows > 0 && cols > 0, "empty matrix shape");
    CooMatrix coo(rows, cols);
    coo.reserve(nnz_target);
    for (std::size_t i = 0; i < nnz_target; ++i) {
        const auto r =
            static_cast<std::uint32_t>(rng.nextZipf(rows, s));
        const auto c = static_cast<std::uint32_t>(rng.nextBounded(cols));
        coo.add(r, c, drawValue(rng, dist));
    }
    return std::move(coo).toCsr();
}

std::vector<float>
randomVector(std::uint32_t n, Rng &rng)
{
    std::vector<float> v(n);
    for (auto &e : v)
        e = rng.nextFloat(0.1f, 1.0f);
    return v;
}

} // namespace sparse
} // namespace chason
