/**
 * @file
 * CooMatrix / CsrMatrix implementation and the reference kernels.
 */

#include "sparse/formats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/logging.h"

namespace chason {
namespace sparse {

CooMatrix::CooMatrix(std::uint32_t rows, std::uint32_t cols)
    : rows_(rows), cols_(cols)
{
}

double
CooMatrix::densityPercent() const
{
    if (rows_ == 0 || cols_ == 0)
        return 0.0;
    return 100.0 * static_cast<double>(nnz()) /
        (static_cast<double>(rows_) * static_cast<double>(cols_));
}

void
CooMatrix::add(std::uint32_t row, std::uint32_t col, float value)
{
    chason_assert(row < rows_, "row %u out of range (rows=%u)", row, rows_);
    chason_assert(col < cols_, "col %u out of range (cols=%u)", col, cols_);
    entries_.push_back({row, col, value});
}

void
CooMatrix::addSymmetric(std::uint32_t row, std::uint32_t col, float value)
{
    add(row, col, value);
    if (row != col)
        add(col, row, value);
}

void
CooMatrix::canonicalize()
{
    // One 64-bit key orders exactly as (row, then col). Keep std::sort:
    // groups of three or more duplicates are summed in the order it
    // leaves them, so a different (radix, stable) sort would change
    // those float sums. Any comparator with the same results gives the
    // same permutation.
    const auto key = [](const Triplet &t) {
        return static_cast<std::uint64_t>(t.row) << 32 | t.col;
    };
    std::sort(entries_.begin(), entries_.end(),
              [&key](const Triplet &a, const Triplet &b) {
                  return key(a) < key(b);
              });
    // Merge duplicates by summation (Matrix Market semantics).
    std::size_t out = 0;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (out > 0 && entries_[out - 1].row == entries_[i].row &&
            entries_[out - 1].col == entries_[i].col) {
            entries_[out - 1].value += entries_[i].value;
        } else {
            entries_[out++] = entries_[i];
        }
    }
    entries_.resize(out);
}

CsrMatrix
CooMatrix::toCsr() const &
{
    return CooMatrix(*this).toCsr();
}

CsrMatrix
CooMatrix::toCsr() &&
{
    canonicalize();
    return CsrMatrix(rows_, cols_, entries_);
}

CsrMatrix::CsrMatrix(std::uint32_t rows, std::uint32_t cols,
                     const std::vector<Triplet> &canonical_entries)
    : rows_(rows), cols_(cols)
{
    rowPtr_.assign(static_cast<std::size_t>(rows_) + 1, 0);
    colIdx_.reserve(canonical_entries.size());
    values_.reserve(canonical_entries.size());

    std::uint32_t prev_row = 0;
    bool first = true;
    for (const Triplet &t : canonical_entries) {
        chason_assert(t.row < rows_ && t.col < cols_,
                      "entry (%u,%u) out of %ux%u", t.row, t.col, rows_,
                      cols_);
        if (!first) {
            chason_assert(t.row > prev_row ||
                              (t.row == prev_row && t.col > colIdx_.back()),
                          "entries are not canonical at (%u,%u)", t.row,
                          t.col);
        }
        ++rowPtr_[t.row + 1];
        colIdx_.push_back(t.col);
        values_.push_back(t.value);
        prev_row = t.row;
        first = false;
    }
    for (std::uint32_t r = 0; r < rows_; ++r)
        rowPtr_[r + 1] += rowPtr_[r];
}

double
CsrMatrix::densityPercent() const
{
    if (rows_ == 0 || cols_ == 0)
        return 0.0;
    return 100.0 * static_cast<double>(nnz()) /
        (static_cast<double>(rows_) * static_cast<double>(cols_));
}

std::size_t
CsrMatrix::rowNnz(std::uint32_t row) const
{
    chason_assert(row < rows_, "row %u out of range", row);
    return rowPtr_[row + 1] - rowPtr_[row];
}

std::size_t
CsrMatrix::maxRowNnz() const
{
    std::size_t best = 0;
    for (std::uint32_t r = 0; r < rows_; ++r)
        best = std::max(best, rowNnz(r));
    return best;
}

std::uint32_t
CsrMatrix::emptyRows() const
{
    std::uint32_t count = 0;
    for (std::uint32_t r = 0; r < rows_; ++r) {
        if (rowNnz(r) == 0)
            ++count;
    }
    return count;
}

CsrMatrix
CsrMatrix::transpose() const
{
    // A^T in CSR is exactly the column-major scatter of A: the row
    // pointers of the transpose are the column pointers of A, and a
    // stable (row-order) scatter leaves each transposed row's column
    // indices sorted. No sort, no COO round trip.
    CsrMatrix out;
    out.rows_ = cols_;
    out.cols_ = rows_;
    out.rowPtr_ = columnPointers(*this);
    out.colIdx_.resize(nnz());
    out.values_.resize(nnz());
    scatterByColumn(*this, out.rowPtr_, out.colIdx_.data(),
                    out.values_.data());
    return out;
}

CooMatrix
CsrMatrix::toCoo() const
{
    CooMatrix coo(rows_, cols_);
    for (std::uint32_t r = 0; r < rows_; ++r) {
        for (std::size_t i = rowPtr_[r]; i < rowPtr_[r + 1]; ++i)
            coo.add(r, colIdx_[i], values_[i]);
    }
    return coo;
}

std::string
CsrMatrix::describe() const
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%ux%u, %zu nnz, %.4g%%", rows_, cols_,
                  nnz(), densityPercent());
    return buf;
}

std::vector<std::size_t>
columnPointers(const CsrMatrix &a)
{
    std::vector<std::size_t> col_ptr(static_cast<std::size_t>(a.cols()) +
                                         1,
                                     0);
    for (std::uint32_t c : a.colIdx())
        ++col_ptr[c + 1];
    for (std::uint32_t c = 0; c < a.cols(); ++c)
        col_ptr[c + 1] += col_ptr[c];
    return col_ptr;
}

namespace {

/** Smallest power of two >= v (v >= 1). */
std::uint32_t
ceilPow2(std::uint32_t v)
{
    std::uint32_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

/** log2 of a power of two. */
unsigned
log2Pow2(std::uint32_t v)
{
    unsigned s = 0;
    while ((1u << s) < v)
        ++s;
    return s;
}

/**
 * Default column-block width: 2^15 columns keep the active cursor slice
 * at 256 KiB (size_t cursors), inside L2 alongside the output region.
 */
constexpr std::uint32_t kDefaultBlockCols = 1u << 15;

/** Below this the whole cursor array fits in cache anyway. */
constexpr std::size_t kBlockedScatterMinNnz = 1u << 20;

void
scatterDirect(const CsrMatrix &a, const std::vector<std::size_t> &col_ptr,
              std::uint32_t *idx_out, float *val_out)
{
    const auto &row_ptr = a.rowPtr();
    const auto &col_idx = a.colIdx();
    const auto &values = a.values();
    std::vector<std::size_t> cursor(col_ptr.begin(), col_ptr.end() - 1);
    for (std::uint32_t r = 0; r < a.rows(); ++r) {
        for (std::size_t i = row_ptr[r]; i < row_ptr[r + 1]; ++i) {
            const std::uint32_t c = col_idx[i];
            idx_out[cursor[c]] = r;
            val_out[cursor[c]] = values[i];
            ++cursor[c];
        }
    }
}

} // namespace

void
scatterByColumn(const CsrMatrix &a,
                const std::vector<std::size_t> &col_ptr,
                std::uint32_t *idx_out, float *val_out,
                std::uint32_t block_cols)
{
    chason_assert(col_ptr.size() ==
                      static_cast<std::size_t>(a.cols()) + 1,
                  "col_ptr has %zu entries for %u columns",
                  col_ptr.size(), a.cols());
    const std::size_t nnz = a.nnz();
    const bool auto_block = block_cols == 0;
    if (auto_block)
        block_cols = kDefaultBlockCols;
    block_cols = ceilPow2(block_cols);
    if (block_cols >= a.cols() ||
        (auto_block && nnz < kBlockedScatterMinNnz)) {
        scatterDirect(a, col_ptr, idx_out, val_out);
        return;
    }

    // Pass 1: stable counting sort of the entries by column block, so
    // pass 2 reads each block's entries contiguously and still sees
    // them in ascending row order (which keeps rows sorted within each
    // output column, exactly like the direct scatter).
    const unsigned shift = log2Pow2(block_cols);
    const std::uint32_t blocks = (a.cols() + block_cols - 1) / block_cols;
    const auto &row_ptr = a.rowPtr();
    const auto &col_idx = a.colIdx();
    const auto &values = a.values();

    std::vector<std::size_t> block_start(blocks + 1, 0);
    for (std::uint32_t c : col_idx)
        ++block_start[(c >> shift) + 1];
    for (std::uint32_t b = 0; b < blocks; ++b)
        block_start[b + 1] += block_start[b];

    std::vector<std::uint32_t> part_row(nnz);
    std::vector<std::uint32_t> part_col(nnz);
    std::vector<float> part_val(nnz);
    {
        std::vector<std::size_t> bcur(block_start.begin(),
                                      block_start.end() - 1);
        for (std::uint32_t r = 0; r < a.rows(); ++r) {
            for (std::size_t i = row_ptr[r]; i < row_ptr[r + 1]; ++i) {
                const std::uint32_t c = col_idx[i];
                const std::size_t pos = bcur[c >> shift]++;
                part_row[pos] = r;
                part_col[pos] = c;
                part_val[pos] = values[i];
            }
        }
    }

    // Pass 2: scatter block by block. All cursor and output accesses
    // of one block stay inside its column range.
    std::vector<std::size_t> cursor(col_ptr.begin(), col_ptr.end() - 1);
    for (std::uint32_t b = 0; b < blocks; ++b) {
        for (std::size_t k = block_start[b]; k < block_start[b + 1];
             ++k) {
            const std::uint32_t c = part_col[k];
            idx_out[cursor[c]] = part_row[k];
            val_out[cursor[c]] = part_val[k];
            ++cursor[c];
        }
    }
}

std::vector<double>
spmvReference(const CsrMatrix &a, const std::vector<float> &x)
{
    chason_assert(x.size() == a.cols(), "x has %zu entries, matrix has %u "
                  "columns", x.size(), a.cols());
    std::vector<double> y(a.rows(), 0.0);
    const auto &row_ptr = a.rowPtr();
    const auto &col_idx = a.colIdx();
    const auto &values = a.values();
    for (std::uint32_t r = 0; r < a.rows(); ++r) {
        double acc = 0.0;
        for (std::size_t i = row_ptr[r]; i < row_ptr[r + 1]; ++i)
            acc += static_cast<double>(values[i]) *
                static_cast<double>(x[col_idx[i]]);
        y[r] = acc;
    }
    return y;
}

std::vector<float>
spmvFloat(const CsrMatrix &a, const std::vector<float> &x)
{
    chason_assert(x.size() == a.cols(), "x has %zu entries, matrix has %u "
                  "columns", x.size(), a.cols());
    std::vector<float> y(a.rows(), 0.0f);
    const auto &row_ptr = a.rowPtr();
    const auto &col_idx = a.colIdx();
    const auto &values = a.values();
    for (std::uint32_t r = 0; r < a.rows(); ++r) {
        float acc = 0.0f;
        for (std::size_t i = row_ptr[r]; i < row_ptr[r + 1]; ++i)
            acc += values[i] * x[col_idx[i]];
        y[r] = acc;
    }
    return y;
}

double
maxRelativeError(const std::vector<float> &result,
                 const std::vector<double> &reference, double rel_tol,
                 double abs_tol)
{
    chason_assert(result.size() == reference.size(),
                  "result/reference size mismatch: %zu vs %zu",
                  result.size(), reference.size());
    double worst = 0.0;
    for (std::size_t i = 0; i < result.size(); ++i) {
        const double err =
            std::abs(static_cast<double>(result[i]) - reference[i]);
        const double allowed = abs_tol + rel_tol * std::abs(reference[i]);
        worst = std::max(worst, err / allowed);
    }
    return worst;
}

} // namespace sparse
} // namespace chason
