/**
 * @file
 * Table 2 registry and sweep-corpus construction.
 *
 * Shapes and NNZ targets follow the published matrices. Two notes:
 *  - The paper's Table 2 uses the tag "RE" twice (reorientation_4 and
 *    Reuters911); Reuters911 is tagged "RT" here to keep lookups unique.
 *  - c52's Table 2 density is inconsistent with its NNZ; we honour the
 *    in-text statement that C5 has ~23 K columns (Section 6.2.2), i.e. the
 *    real c-52 dimension of 23948.
 */

#include "sparse/dataset.h"

#include <cstdio>
#include <filesystem>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "common/rng.h"
#include "sparse/generators.h"
#include "sparse/matrix_market.h"

namespace chason {
namespace sparse {

namespace {

/** Deterministic per-entry seed so every matrix is reproducible. */
std::uint64_t
entrySeed(const std::string &name)
{
    return common::fnv1a(name);
}

CsrMatrix
genArrow(const std::string &name, std::uint32_t n, std::uint32_t band,
         double fill, std::uint32_t dense_rows)
{
    Rng rng(entrySeed(name));
    return arrowBanded(n, band, fill, dense_rows, rng);
}

CsrMatrix
genZipf(const std::string &name, std::uint32_t n, std::size_t nnz, double s)
{
    Rng rng(entrySeed(name));
    return zipfRows(n, n, nnz, s, rng);
}

CsrMatrix
genPa(const std::string &name, std::uint32_t n, std::uint32_t epn)
{
    Rng rng(entrySeed(name));
    return preferentialAttachment(n, epn, rng);
}

} // namespace

const std::vector<DatasetEntry> &
table2()
{
    static const std::vector<DatasetEntry> entries = {
        // --- SuiteSparse ------------------------------------------------
        {"DY", "dynamicSoaringProblem_8", Collection::SuiteSparse, 38136,
         0.303, [] { return genArrow("DY", 3548, 24, 0.120, 4); }},
        {"RE", "reorientation_4", Collection::SuiteSparse, 33630, 0.455,
         [] { return genArrow("RE", 2719, 28, 0.132, 4); }},
        {"C5", "c52", Collection::SuiteSparse, 20278, 0.00035,
         [] { return genZipf("C5", 23948, 20278, 1.4); }},
        {"MY", "mycielskian12", Collection::SuiteSparse, 407200, 4.31,
         [] { return mycielskian(12); }},
        {"VS", "vsp_c_30_data_data", Collection::SuiteSparse, 124368, 0.102,
         [] { return genPa("VS", 11042, 14); }},
        {"TS", "TSC_OPF_300", Collection::SuiteSparse, 820783, 0.859,
         [] { return genArrow("TS", 9774, 84, 0.447, 8); }},
        {"LO", "lowThrust_7", Collection::SuiteSparse, 211561, 0.0700,
         [] { return genArrow("LO", 17378, 27, 0.133, 4); }},
        {"HA", "hangGlider_3", Collection::SuiteSparse, 92703, 0.0880,
         [] { return genArrow("HA", 10260, 20, 0.126, 3); }},
        {"TR", "trans5", Collection::SuiteSparse, 749800, 0.00541,
         [] { return genZipf("TR", 116835, 749800, 1.15); }},
        {"CK", "ckt11752_dc_1", Collection::SuiteSparse, 333029, 0.0138,
         [] { return genZipf("CK", 49702, 333029, 1.2); }},
        // --- SNAP -------------------------------------------------------
        {"WI", "wiki-Vote", Collection::Snap, 103689, 0.1506,
         [] { return genPa("WI", 7115, 20); }},
        {"EM", "email-Enron", Collection::Snap, 367332, 0.0272,
         [] { return genPa("EM", 36692, 11); }},
        {"AS", "as-caida", Collection::Snap, 106762, 0.0108,
         [] { return genPa("AS", 26475, 4); }},
        {"OR", "Oregon-2", Collection::Snap, 65406, 0.0469,
         [] { return genPa("OR", 11806, 6); }},
        {"WK", "wiki-RfA", Collection::Snap, 188077, 0.145,
         [] { return genPa("WK", 10835, 25); }},
        {"SC", "soc-Slashdot0811", Collection::Snap, 905468, 0.0151,
         [] { return genPa("SC", 77360, 14); }},
        {"A7", "as-735", Collection::Snap, 26467, 0.0444,
         [] { return genPa("A7", 7716, 4); }},
        {"CM", "CollegeMsg", Collection::Snap, 20296, 0.562,
         [] { return genPa("CM", 1899, 14); }},
        {"WB", "wb-cs-stanford", Collection::Snap, 36854, 0.0374,
         [] { return genPa("WB", 9914, 4); }},
        {"RT", "Reuters911", Collection::Snap, 296076, 0.1667,
         [] { return genPa("RT", 13332, 45); }},
    };
    return entries;
}

const DatasetEntry &
table2ByTag(const std::string &tag)
{
    for (const DatasetEntry &e : table2()) {
        if (e.id == tag)
            return e;
    }
    chason_fatal("unknown Table 2 tag '%s'", tag.c_str());
}

std::optional<CsrMatrix>
loadOrGenerate(const DatasetEntry &entry, const std::string &mtx_dir,
               std::string &error)
{
    if (!mtx_dir.empty()) {
        const std::filesystem::path path =
            std::filesystem::path(mtx_dir) / (entry.name + ".mtx");
        if (std::filesystem::exists(path)) {
            inform("loading %s from %s", entry.name.c_str(),
                   path.string().c_str());
            std::optional<CooMatrix> coo =
                readMatrixMarketFile(path.string(), error);
            if (!coo)
                return std::nullopt;
            return std::move(*coo).toCsr();
        }
    }
    return entry.generate();
}

std::vector<SweepEntry>
serpensDozen()
{
    std::vector<SweepEntry> dozen;
    auto add = [&dozen](const char *name,
                        std::function<CsrMatrix()> gen) {
        dozen.push_back({name, std::move(gen)});
    };

    // Web-style graphs (large, moderately skewed).
    add("web_small", [] {
        Rng rng(entrySeed("web_small"));
        return preferentialAttachment(300000, 8, rng);
    });
    add("web_large", [] {
        Rng rng(entrySeed("web_large"));
        return preferentialAttachment(700000, 6, rng);
    });
    add("social", [] {
        Rng rng(entrySeed("social"));
        return rmat(19, 4000000, rng);
    });
    // FEM / mesh matrices (very balanced).
    add("mesh_2d", [] { return poisson2d(1200); });
    add("mesh_banded", [] {
        Rng rng(entrySeed("mesh_banded"));
        return banded(800000, 3, 0.9, rng);
    });
    add("mesh_wide", [] {
        Rng rng(entrySeed("mesh_wide"));
        return banded(400000, 8, 0.6, rng);
    });
    // cage-style DNA electrophoresis chains (regular, ~9 nnz/row).
    add("cage_small", [] {
        Rng rng(entrySeed("cage_small"));
        return banded(500000, 5, 0.8, rng);
    });
    add("cage_large", [] {
        Rng rng(entrySeed("cage_large"));
        return banded(900000, 4, 0.9, rng);
    });
    // Circuits / P2P graphs (mildly irregular).
    add("circuit_a", [] {
        Rng rng(entrySeed("circuit_a"));
        return zipfRows(400000, 400000, 2400000, 1.05, rng);
    });
    add("p2p", [] {
        Rng rng(entrySeed("p2p"));
        return erdosRenyi(250000, 250000, 2000000, rng);
    });
    // Block-structured multiphysics.
    add("block_fem", [] {
        Rng rng(entrySeed("block_fem"));
        return blockDiagonal(300000, 24, 0.6, 0.02, rng);
    });
    add("stencil_3d", [] {
        Rng rng(entrySeed("stencil_3d"));
        return banded(600000, 6, 0.7, rng);
    });
    return dozen;
}

std::vector<SweepEntry>
sweepCorpus(std::size_t count)
{
    std::vector<SweepEntry> corpus;
    corpus.reserve(count);

    // Deterministic family / size / fill grid. Densities span roughly
    // 1e-5 % .. 10 % and NNZ 1e3 .. 1e6 as in Section 5.4.
    for (std::size_t i = 0; corpus.size() < count; ++i) {
        const std::size_t family = i % 8;
        const std::size_t size_step = (i / 8) % 7;
        const std::size_t deg_step = (i / 56) % 5;
        const std::uint64_t seed = 0x5eed0000ull + i;

        const std::uint32_t rows = 1024u << size_step;    // 1 K .. 64 K
        const std::uint32_t avg_deg = 2u + 4u * deg_step; // 2 .. 18

        char buf[96];
        switch (family) {
          case 0: {
            // Moderately heavy-tailed graph rows (Pareto out-degrees),
            // the most common class in the collections.
            std::snprintf(buf, sizeof(buf), "graph_%zu", i);
            const std::uint32_t epn = avg_deg;
            corpus.push_back({buf, [rows, epn, seed] {
                Rng rng(seed);
                return preferentialAttachment(rows, epn, rng);
            }});
            break;
          }
          case 1: {
            std::snprintf(buf, sizeof(buf), "rmat_%zu", i);
            const std::uint32_t scale = 10 + size_step;
            const std::size_t nnz =
                static_cast<std::size_t>(1u << scale) * avg_deg;
            corpus.push_back({buf, [scale, nnz, seed] {
                Rng rng(seed);
                return rmat(scale, nnz, rng);
            }});
            break;
          }
          case 2: {
            std::snprintf(buf, sizeof(buf), "zipf_%zu", i);
            const std::size_t nnz =
                static_cast<std::size_t>(rows) * avg_deg;
            const double s = 1.1 + 0.1 * static_cast<double>(deg_step);
            corpus.push_back({buf, [rows, nnz, s, seed] {
                Rng rng(seed);
                return zipfRows(rows, rows, nnz, s, rng);
            }});
            break;
          }
          case 3: {
            // Trajectory-optimization arrowhead: banded plus dense
            // border rows.
            std::snprintf(buf, sizeof(buf), "arrow_%zu", i);
            const std::uint32_t band = 4u + 8u * deg_step;
            const std::uint32_t dense =
                1u + static_cast<std::uint32_t>(deg_step);
            corpus.push_back({buf, [rows, band, dense, seed] {
                Rng rng(seed);
                return arrowBanded(rows, band, 0.25, dense, rng);
            }});
            break;
          }
          case 4: {
            std::snprintf(buf, sizeof(buf), "blockdiag_%zu", i);
            const std::uint32_t block = 16u + 16u * deg_step;
            corpus.push_back({buf, [rows, block, seed] {
                Rng rng(seed);
                return blockDiagonal(rows, block, 0.4, 0.05, rng);
            }});
            break;
          }
          case 5: {
            std::snprintf(buf, sizeof(buf), "er_%zu", i);
            const std::size_t nnz =
                static_cast<std::size_t>(rows) * avg_deg;
            corpus.push_back({buf, [rows, nnz, seed] {
                Rng rng(seed);
                return erdosRenyi(rows, rows, nnz, rng);
            }});
            break;
          }
          case 6: {
            std::snprintf(buf, sizeof(buf), "poisson_%zu", i);
            const std::uint32_t grid = 32u << size_step; // 32 .. 2048
            const std::uint32_t capped = std::min(grid, 512u);
            corpus.push_back({buf, [capped] {
                return poisson2d(capped);
            }});
            break;
          }
          default: {
            std::snprintf(buf, sizeof(buf), "mixed_%zu", i);
            const std::size_t nnz =
                static_cast<std::size_t>(rows) * avg_deg / 2;
            corpus.push_back({buf, [rows, nnz, seed] {
                Rng rng(seed);
                CooMatrix coo(rows, rows);
                // diagonal + uniform noise: circuit-like structure
                for (std::uint32_t r = 0; r < rows; ++r)
                    coo.add(r, r, drawValue(
                        rng, ValueDistribution::PositiveUniform));
                for (std::size_t e = 0; e < nnz; ++e) {
                    coo.add(static_cast<std::uint32_t>(
                                rng.nextBounded(rows)),
                            static_cast<std::uint32_t>(
                                rng.nextBounded(rows)),
                            drawValue(
                                rng, ValueDistribution::PositiveUniform));
                }
                return std::move(coo).toCsr();
            }});
            break;
          }
        }
    }
    return corpus;
}

} // namespace sparse
} // namespace chason
