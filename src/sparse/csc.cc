/**
 * @file
 * CSC implementation.
 */

#include "sparse/csc.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace chason {
namespace sparse {

CscMatrix
CscMatrix::fromCsr(const CsrMatrix &csr)
{
    CscMatrix out;
    out.rows_ = csr.rows();
    out.cols_ = csr.cols();
    out.colPtr_ = columnPointers(csr);
    out.rowIdx_.resize(csr.nnz());
    out.values_.resize(csr.nnz());
    // Counting-sort scatter (cache-blocked above a size threshold); row
    // indices come out sorted within each column because the scatter
    // walks CSR rows in ascending order.
    scatterByColumn(csr, out.colPtr_, out.rowIdx_.data(),
                    out.values_.data());
    return out;
}

std::size_t
CscMatrix::colNnz(std::uint32_t col) const
{
    chason_assert(col < cols_, "column %u out of range", col);
    return colPtr_[col + 1] - colPtr_[col];
}

std::size_t
CscMatrix::maxColNnz() const
{
    std::size_t best = 0;
    for (std::uint32_t c = 0; c < cols_; ++c)
        best = std::max(best, colNnz(c));
    return best;
}

CsrMatrix
CscMatrix::toCsr() const
{
    CooMatrix coo(rows_, cols_);
    for (std::uint32_t c = 0; c < cols_; ++c) {
        for (std::size_t i = colPtr_[c]; i < colPtr_[c + 1]; ++i)
            coo.add(rowIdx_[i], c, values_[i]);
    }
    return std::move(coo).toCsr();
}

std::vector<float>
CscMatrix::spmv(const std::vector<float> &x) const
{
    chason_assert(x.size() == cols_, "x has %zu entries, matrix has %u "
                  "columns", x.size(), cols_);
    std::vector<float> y(rows_, 0.0f);
    for (std::uint32_t c = 0; c < cols_; ++c) {
        const float xc = x[c];
        if (xc == 0.0f)
            continue;
        for (std::size_t i = colPtr_[c]; i < colPtr_[c + 1]; ++i)
            y[rowIdx_[i]] += values_[i] * xc;
    }
    return y;
}

std::vector<float>
CscMatrix::spmvTransposed(const std::vector<float> &x) const
{
    chason_assert(x.size() == rows_, "x has %zu entries, A^T has %u "
                  "columns", x.size(), rows_);
    std::vector<float> y(cols_, 0.0f);
    for (std::uint32_t c = 0; c < cols_; ++c) {
        float acc = 0.0f;
        for (std::size_t i = colPtr_[c]; i < colPtr_[c + 1]; ++i)
            acc += values_[i] * x[rowIdx_[i]];
        y[c] = acc;
    }
    return y;
}

} // namespace sparse
} // namespace chason
