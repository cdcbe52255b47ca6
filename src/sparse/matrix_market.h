/**
 * @file
 * Matrix Market (coordinate format) reader and writer.
 *
 * SuiteSparse and SNAP matrices ship as .mtx files; this module lets the
 * library load real matrices when they are present on disk, while the
 * benchmark harness falls back to synthetic equivalents (see
 * sparse/dataset.h) when they are not.
 *
 * Supported header variants: "matrix coordinate {real|integer|pattern}
 * {general|symmetric|skew-symmetric}". Pattern entries get value 1.0.
 */

#ifndef CHASON_SPARSE_MATRIX_MARKET_H_
#define CHASON_SPARSE_MATRIX_MARKET_H_

#include <iosfwd>
#include <optional>
#include <string>

#include "sparse/formats.h"

namespace chason {
namespace sparse {

/**
 * Parse a Matrix Market stream. Malformed input returns nullopt with
 * the reason ("matrix market: ...") in @p error; parsing never calls
 * fatal(), so untrusted bytes (a client's .mtx) are safe to feed it.
 */
std::optional<CooMatrix> readMatrixMarket(std::istream &in,
                                          std::string &error);

/** Load a .mtx file from disk; nullopt with @p error set on failure. */
std::optional<CooMatrix> readMatrixMarketFile(const std::string &path,
                                              std::string &error);

/** Serialize in "matrix coordinate real general" form (1-based). */
void writeMatrixMarket(const CooMatrix &matrix, std::ostream &out);

/** Write a .mtx file to disk. Calls fatal() if it cannot be created. */
void writeMatrixMarketFile(const CooMatrix &matrix,
                           const std::string &path);

} // namespace sparse
} // namespace chason

#endif // CHASON_SPARSE_MATRIX_MARKET_H_
