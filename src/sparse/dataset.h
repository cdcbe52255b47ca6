/**
 * @file
 * Evaluation dataset registry.
 *
 * Two corpora drive the paper's evaluation:
 *
 *  1. the 20 named matrices of Table 2 (10 SuiteSparse + 10 SNAP). Each
 *     entry here reproduces the published matrix's dimensions and NNZ
 *     using the generator that matches its domain (see
 *     sparse/generators.h). mycielskian12 is reproduced exactly; the
 *     others are structural stand-ins with matching shape, NNZ target and
 *     imbalance class, since the real collections cannot be downloaded in
 *     this environment.
 *
 *  2. an 800-matrix sweep corpus spanning density 1e-5 % .. 10 % and NNZ
 *     1e3 .. 1e6 (Figs. 3, 11, 14), built from a deterministic family x
 *     size x imbalance grid.
 *
 * If real .mtx files are available, place them under a directory and call
 * loadOrGenerate() with it; entries fall back to synthesis otherwise.
 */

#ifndef CHASON_SPARSE_DATASET_H_
#define CHASON_SPARSE_DATASET_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sparse/formats.h"

namespace chason {
namespace sparse {

/** Which collection a Table 2 matrix came from. */
enum class Collection
{
    SuiteSparse,
    Snap,
};

/** One named matrix of Table 2. */
struct DatasetEntry
{
    std::string id;          ///< the paper's two-letter tag (DY, RE, ...)
    std::string name;        ///< the collection name (dynamicSoaring...)
    Collection collection;   ///< SuiteSparse or SNAP
    std::size_t paperNnz;    ///< NNZ reported in Table 2
    double paperDensity;     ///< density % reported in Table 2
    std::function<CsrMatrix()> generate; ///< synthetic reproduction
};

/** The 20 matrices of Table 2, in paper order. */
const std::vector<DatasetEntry> &table2();

/** Look up a Table 2 entry by tag; fatal() if unknown. */
const DatasetEntry &table2ByTag(const std::string &tag);

/**
 * Either load "<dir>/<name>.mtx" if present or synthesize the entry.
 * Passing an empty dir always synthesizes. A file that does not parse
 * returns nullopt with the reason in @p error.
 */
std::optional<CsrMatrix> loadOrGenerate(const DatasetEntry &entry,
                                        const std::string &mtx_dir,
                                        std::string &error);

/** One matrix of the sweep corpus. */
struct SweepEntry
{
    std::string name;        ///< family + parameters, e.g. "rmat_s14_e8_i3"
    std::function<CsrMatrix()> generate;
};

/**
 * The sweep corpus used for the 800-matrix experiments. @p count can be
 * reduced for quick runs; entries are a deterministic prefix, so
 * sweepCorpus(100) is the first 100 entries of sweepCorpus(800).
 */
std::vector<SweepEntry> sweepCorpus(std::size_t count = 800);

/**
 * Stand-ins for "the 12 matrices listed in the Serpens paper"
 * (Section 6.2.2): large matrices — web graphs, meshes, cage DNA
 * electrophoresis chains, circuits — whose ample per-lane row supply
 * leaves PE-aware scheduling with few stalls, so Chasoň's advantage
 * shrinks to the ~1.17x geomean the paper reports there. The Chasoň
 * paper does not name the twelve, so these reproduce the class (large,
 * comparatively balanced) rather than specific entries.
 */
std::vector<SweepEntry> serpensDozen();

} // namespace sparse
} // namespace chason

#endif // CHASON_SPARSE_DATASET_H_
