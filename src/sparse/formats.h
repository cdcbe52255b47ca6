/**
 * @file
 * Sparse matrix containers used throughout the library.
 *
 * CooMatrix is the construction/interchange format (what the generators
 * and the Matrix Market reader produce); CsrMatrix is the canonical
 * compute format consumed by the schedulers and the reference kernels.
 */

#ifndef CHASON_SPARSE_FORMATS_H_
#define CHASON_SPARSE_FORMATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace chason {
namespace sparse {

/** One non-zero element in coordinate form. */
struct Triplet
{
    std::uint32_t row = 0;
    std::uint32_t col = 0;
    float value = 0.0f;

    friend bool operator==(const Triplet &, const Triplet &) = default;
};

class CsrMatrix;

/**
 * Coordinate-format sparse matrix. Entries may arrive in any order and
 * with duplicates; canonicalize() sorts row-major and sums duplicates.
 */
class CooMatrix
{
  public:
    CooMatrix() = default;

    /** Create an empty rows x cols matrix. */
    CooMatrix(std::uint32_t rows, std::uint32_t cols);

    std::uint32_t rows() const { return rows_; }
    std::uint32_t cols() const { return cols_; }
    std::size_t nnz() const { return entries_.size(); }

    /** Fraction of positions that are populated, in percent. */
    double densityPercent() const;

    /** Reserve room for @p entries triplets (no effect on contents). */
    void reserve(std::size_t entries) { entries_.reserve(entries); }

    /** Append one entry; indices must be in range. */
    void add(std::uint32_t row, std::uint32_t col, float value);

    /** Append an entry and its transpose twin (for symmetric inputs). */
    void addSymmetric(std::uint32_t row, std::uint32_t col, float value);

    const std::vector<Triplet> &entries() const { return entries_; }

    /** Sort row-major (row, then col) and combine duplicate coordinates. */
    void canonicalize();

    /** Convert to CSR (canonicalizes a copy internally). */
    CsrMatrix toCsr() const &;

    /**
     * Convert to CSR, canonicalizing this matrix's own triplets in
     * place instead of a copy. Same result as the const overload;
     * callers that own the COO should std::move it here.
     */
    CsrMatrix toCsr() &&;

  private:
    std::uint32_t rows_ = 0;
    std::uint32_t cols_ = 0;
    std::vector<Triplet> entries_;
};

/**
 * Compressed sparse row matrix. Immutable after construction; column
 * indices within each row are sorted and unique.
 */
class CsrMatrix
{
  public:
    CsrMatrix() = default;

    /**
     * Build from canonical (sorted, deduplicated) triplets.
     * Validated with always-on assertions.
     */
    CsrMatrix(std::uint32_t rows, std::uint32_t cols,
              const std::vector<Triplet> &canonical_entries);

    std::uint32_t rows() const { return rows_; }
    std::uint32_t cols() const { return cols_; }
    std::size_t nnz() const { return values_.size(); }

    double densityPercent() const;

    const std::vector<std::size_t> &rowPtr() const { return rowPtr_; }
    const std::vector<std::uint32_t> &colIdx() const { return colIdx_; }
    const std::vector<float> &values() const { return values_; }

    /** Number of non-zeros in one row. */
    std::size_t rowNnz(std::uint32_t row) const;

    /** Longest row length (0 for an empty matrix). */
    std::size_t maxRowNnz() const;

    /** Number of rows with no non-zeros. */
    std::uint32_t emptyRows() const;

    /** Transpose (used by tests and the SpMM extension). */
    CsrMatrix transpose() const;

    /** Back to coordinate form. */
    CooMatrix toCoo() const;

    /** Short human-readable description ("512x512, 4096 nnz, 1.56%"). */
    std::string describe() const;

  private:
    std::uint32_t rows_ = 0;
    std::uint32_t cols_ = 0;
    std::vector<std::size_t> rowPtr_;   // size rows_ + 1
    std::vector<std::uint32_t> colIdx_; // size nnz
    std::vector<float> values_;         // size nnz
};

/**
 * Exclusive prefix sums of the per-column non-zero counts of @p a
 * (size cols + 1): the row pointers of A^T, or CSC column pointers.
 */
std::vector<std::size_t> columnPointers(const CsrMatrix &a);

/**
 * Counting-sort scatter of a CSR matrix into column-major order.
 * @p col_ptr must come from columnPointers(a). For each non-zero, in
 * (column, row) order, writes the source row to @p idx_out and the
 * value to @p val_out (both sized a.nnz()). Backs both
 * CsrMatrix::transpose and CscMatrix::fromCsr.
 *
 * The scatter writes land at col_ptr-derived cursors, i.e. randomly
 * across the whole output for a sequential input walk. Above a size
 * threshold the entries are first partitioned (stably) into runs of
 * @p block_cols consecutive columns, so the second pass touches only a
 * cache-sized cursor slice and output region at a time. The blocked
 * and direct paths produce byte-identical arrays; @p block_cols is
 * rounded up to a power of two, 0 picks the size heuristically, and
 * any value >= a.cols() forces the direct path.
 */
void scatterByColumn(const CsrMatrix &a,
                     const std::vector<std::size_t> &col_ptr,
                     std::uint32_t *idx_out, float *val_out,
                     std::uint32_t block_cols = 0);

/**
 * Reference SpMV in double precision: y = A x. This is the golden model
 * every accelerator simulation is checked against.
 */
std::vector<double> spmvReference(const CsrMatrix &a,
                                  const std::vector<float> &x);

/**
 * Single-precision CPU SpMV with row-major accumulation order (the
 * natural CSR loop); used to bound the accumulation-order error of the
 * accelerators in tests.
 */
std::vector<float> spmvFloat(const CsrMatrix &a,
                             const std::vector<float> &x);

/**
 * Compare a float result vector against the double-precision reference
 * with a mixed absolute/relative tolerance.
 * @return the largest violation ratio (<= 1 means "within tolerance").
 */
double maxRelativeError(const std::vector<float> &result,
                        const std::vector<double> &reference,
                        double rel_tol = 1e-3, double abs_tol = 1e-4);

} // namespace sparse
} // namespace chason

#endif // CHASON_SPARSE_FORMATS_H_
