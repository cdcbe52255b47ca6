/**
 * @file
 * Unit tests for Matrix Market I/O.
 */

#include "sparse/matrix_market.h"

#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <sstream>
#include <string>

namespace chason {
namespace sparse {
namespace {

/** Parse @p in, failing the test (and returning empty) on an error. */
CooMatrix
parse(std::istream &in)
{
    std::string error;
    std::optional<CooMatrix> coo = readMatrixMarket(in, error);
    EXPECT_TRUE(coo) << error;
    return coo ? std::move(*coo) : CooMatrix();
}

/** @p in must be rejected with an error containing @p message. */
void
expectRejected(std::istream &in, const std::string &message)
{
    std::string error;
    EXPECT_FALSE(readMatrixMarket(in, error));
    EXPECT_NE(error.find(message), std::string::npos) << error;
}

TEST(MatrixMarket, ReadGeneralReal)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real general\n"
        "% a comment\n"
        "3 4 2\n"
        "1 2 2.5\n"
        "3 4 -1\n");
    const CooMatrix coo = parse(in);
    EXPECT_EQ(coo.rows(), 3u);
    EXPECT_EQ(coo.cols(), 4u);
    ASSERT_EQ(coo.nnz(), 2u);
    EXPECT_EQ(coo.entries()[0], (Triplet{0, 1, 2.5f}));
    EXPECT_EQ(coo.entries()[1], (Triplet{2, 3, -1.0f}));
}

TEST(MatrixMarket, ReadSymmetricMirrors)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 3 2\n"
        "2 1 7\n"
        "3 3 1\n");
    const CooMatrix coo = parse(in);
    EXPECT_EQ(coo.nnz(), 3u); // (1,0), (0,1) and the diagonal
}

TEST(MatrixMarket, ReadSkewSymmetricNegates)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real skew-symmetric\n"
        "2 2 1\n"
        "2 1 3\n");
    const CsrMatrix a = parse(in).toCsr();
    const std::vector<float> x = {1.0f, 0.0f};
    const std::vector<double> y = spmvReference(a, x);
    EXPECT_DOUBLE_EQ(y[0], 0.0);
    EXPECT_DOUBLE_EQ(y[1], 3.0);
    const std::vector<float> x2 = {0.0f, 1.0f};
    EXPECT_DOUBLE_EQ(spmvReference(a, x2)[0], -3.0);
}

TEST(MatrixMarket, ReadPatternUsesOnes)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate pattern general\n"
        "2 2 2\n"
        "1 1\n"
        "2 2\n");
    const CooMatrix coo = parse(in);
    ASSERT_EQ(coo.nnz(), 2u);
    EXPECT_EQ(coo.entries()[0].value, 1.0f);
}

TEST(MatrixMarket, AcceptsCrlfLineEndings)
{
    // A Windows-written file: every line ends \r\n, including a blank
    // line and a comment between header and size line.
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real general\r\n"
        "% written on Windows\r\n"
        "\r\n"
        "3 4 2\r\n"
        "1 2 2.5\r\n"
        "3 4 -1\r\n");
    const CooMatrix coo = parse(in);
    EXPECT_EQ(coo.rows(), 3u);
    EXPECT_EQ(coo.cols(), 4u);
    ASSERT_EQ(coo.nnz(), 2u);
    EXPECT_EQ(coo.entries()[0], (Triplet{0, 1, 2.5f}));
    EXPECT_EQ(coo.entries()[1], (Triplet{2, 3, -1.0f}));
}

TEST(MatrixMarket, AcceptsBannerAndCommentWhitespaceVariants)
{
    // Tab-separated banner tokens, indented comments, and blank lines
    // before the size line all occur in collection dumps.
    std::istringstream in(
        "%%MatrixMarket\tmatrix   coordinate\treal general\n"
        "   % indented comment\n"
        "\t\n"
        "  \n"
        "2 2 1\n"
        "2 1 4.0\n");
    const CooMatrix coo = parse(in);
    ASSERT_EQ(coo.nnz(), 1u);
    EXPECT_EQ(coo.entries()[0], (Triplet{1, 0, 4.0f}));
}

TEST(MatrixMarket, CrlfFileFixtureRoundTrip)
{
    // Byte-exact CRLF fixture written in binary mode, read through the
    // public file entry point.
    const std::string path =
        ::testing::TempDir() + "/chason_mm_crlf.mtx";
    {
        std::ofstream out(path, std::ios::binary);
        out << "%%MatrixMarket matrix coordinate real symmetric\r\n"
               "% fixture\r\n"
               "3 3 2\r\n"
               "2 1 7\r\n"
               "3 3 1\r\n";
    }
    std::string error;
    const std::optional<CooMatrix> coo = readMatrixMarketFile(path, error);
    ASSERT_TRUE(coo) << error;
    EXPECT_EQ(coo->nnz(), 3u); // mirrored off-diagonal + diagonal
}

TEST(MatrixMarketError, CrlfDoesNotWeakenNanRejection)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real general\r\n"
        "2 2 1\r\n"
        "1 1 nan\r\n");
    expectRejected(in, "non-finite");
}

TEST(MatrixMarketError, CrlfDoesNotWeakenOverflowRejection)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real general\r\n"
        "4294967296 2 1\r\n"
        "1 1 1.0\r\n");
    expectRejected(in, "overflow");
}

TEST(MatrixMarketError, BlankLinesOnlyStillTruncated)
{
    // Tolerating blank lines must not mask a genuinely missing size
    // line.
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real general\r\n"
        "\r\n"
        "   \r\n");
    expectRejected(in, "truncated before size line");
}

TEST(MatrixMarketError, RejectsBadBanner)
{
    std::istringstream in("%%NotMatrixMarket x y z w\n1 1 0\n");
    expectRejected(in, "banner");
}

TEST(MatrixMarketError, RejectsArrayFormat)
{
    std::istringstream in(
        "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n");
    expectRejected(in, "coordinate");
}

TEST(MatrixMarketError, RejectsOutOfBoundsEntry)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 1\n"
        "3 1 1.0\n");
    expectRejected(in, "out of bounds");
}

TEST(MatrixMarketError, RejectsTruncatedStream)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 2\n"
        "1 1 1.0\n");
    expectRejected(in, "truncated");
}

TEST(MatrixMarketError, RejectsStreamEndingBeforeSizeLine)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real general\n"
        "% only comments follow the banner\n");
    expectRejected(in, "truncated before size line");
}

TEST(MatrixMarketError, RejectsIncompleteSizeLine)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real general\n"
        "4 4\n"
        "1 1 1.0\n");
    expectRejected(in, "bad size line");
}

TEST(MatrixMarketError, RejectsOverflowingDimensions)
{
    // 2^32 rows cannot be indexed by uint32_t; the old cast silently
    // truncated to 0.
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real general\n"
        "4294967296 2 1\n"
        "1 1 1.0\n");
    expectRejected(in, "overflow");
}

TEST(MatrixMarketError, RejectsNanValue)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 1\n"
        "1 1 nan\n");
    expectRejected(in, "non-finite");
}

TEST(MatrixMarketError, RejectsInfValue)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 1\n"
        "1 1 -inf\n");
    expectRejected(in, "non-finite");
}

TEST(MatrixMarket, WriteReadRoundTrip)
{
    CooMatrix coo(4, 5);
    coo.add(0, 0, 1.5f);
    coo.add(3, 4, -2.25f);
    coo.add(2, 1, 0.125f);
    coo.canonicalize();

    std::stringstream buffer;
    writeMatrixMarket(coo, buffer);
    const CooMatrix back = parse(buffer);
    EXPECT_EQ(back.rows(), coo.rows());
    EXPECT_EQ(back.cols(), coo.cols());
    EXPECT_EQ(back.entries(), coo.entries());
}

TEST(MatrixMarket, FileRoundTrip)
{
    CooMatrix coo(2, 2);
    coo.add(1, 1, 9.0f);
    const std::string path = ::testing::TempDir() + "/chason_mm_test.mtx";
    writeMatrixMarketFile(coo, path);
    std::string error;
    const std::optional<CooMatrix> back = readMatrixMarketFile(path, error);
    ASSERT_TRUE(back) << error;
    EXPECT_EQ(back->entries(), coo.entries());
}

TEST(MatrixMarketError, MissingFileIsAnError)
{
    std::string error;
    EXPECT_FALSE(readMatrixMarketFile("/nonexistent/nope.mtx", error));
    EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

} // namespace
} // namespace sparse
} // namespace chason
