/**
 * @file
 * Unit and property tests for the synthetic generators.
 */

#include "sparse/generators.h"

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <limits>
#include <map>
#include <string>

#include "common/hash.h"
#include "sparse/dataset.h"

namespace chason {
namespace sparse {
namespace {

TEST(ErdosRenyi, ShapeAndNnz)
{
    Rng rng(1);
    const CsrMatrix a = erdosRenyi(200, 300, 2000, rng);
    EXPECT_EQ(a.rows(), 200u);
    EXPECT_EQ(a.cols(), 300u);
    EXPECT_LE(a.nnz(), 2000u);
    EXPECT_GT(a.nnz(), 1900u); // few duplicate collisions at 3% density
}

TEST(ErdosRenyi, Deterministic)
{
    Rng a_rng(42), b_rng(42);
    const CsrMatrix a = erdosRenyi(100, 100, 500, a_rng);
    const CsrMatrix b = erdosRenyi(100, 100, 500, b_rng);
    EXPECT_EQ(a.colIdx(), b.colIdx());
    EXPECT_EQ(a.values(), b.values());
}

TEST(Rmat, PowerLawSkew)
{
    Rng rng(2);
    const CsrMatrix a = rmat(12, 40000, rng);
    EXPECT_EQ(a.rows(), 4096u);
    // Heavy-tailed: the max row far exceeds the mean (~10).
    EXPECT_GT(a.maxRowNnz(), 60u);
}

TEST(Rmat, IntegerThresholdsMatchDoubleCompare)
{
    // nextDouble() is k * 2^-53; rmat compares k against
    // Rng::unitThreshold(p) instead of the double against p. Check the
    // neighbours of every threshold, where a rounding slip would show.
    constexpr std::uint64_t kEnd = std::uint64_t{1} << Rng::kUnitBits;
    const double a = 0.57, b = 0.19, c = 0.19;
    for (const double p :
         {a, a + b, a + b + c, 0.7, 0.7 + 0.12, 0.7 + 0.12 + 0.12, 0.5,
          0x1.0p-53, 0x1.8p-53, 1.0 - 0x1.0p-53, std::nextafter(a, 0.0),
          std::nextafter(a, 1.0), 1e-300}) {
        const std::uint64_t t = Rng::unitThreshold(p);
        ASSERT_GT(t, 0u) << p;
        ASSERT_LT(t, kEnd) << p;
        for (const std::uint64_t k : {t - 1, t, t + 1}) {
            EXPECT_EQ(k < t, static_cast<double>(k) * 0x1.0p-53 < p)
                << "p " << p << " k " << k << " threshold " << t;
        }
    }

    // Probability 0 (or below, or NaN) admits no k.
    for (const double p : {0.0, -0.0, -0.25,
                           std::numeric_limits<double>::quiet_NaN()})
        EXPECT_EQ(Rng::unitThreshold(p), 0u) << p;
    // Thresholds >= 1 admit every k, the largest included.
    for (const double p : {1.0, 1.0 + 0x1.0p-52, 1.5, 1e300,
                           std::numeric_limits<double>::infinity()})
        EXPECT_EQ(Rng::unitThreshold(p), kEnd) << p;
    EXPECT_LT(static_cast<double>(kEnd - 1) * 0x1.0p-53, 1.0);

    // A probability of 0 never picks its quadrant, and one of 1 always
    // does: every edge lands in the same corner cell.
    const std::uint32_t last = (1u << 6) - 1;
    const struct
    {
        double a, b, c;
        std::uint32_t row, col;
    } corners[] = {{1.0, 0.0, 0.0, 0, 0},
                   {0.0, 1.0, 0.0, 0, last},
                   {0.0, 0.0, 1.0, last, 0},
                   {0.0, 0.0, 0.0, last, last}};
    for (const auto &corner : corners) {
        Rng rng(12);
        const CsrMatrix m =
            rmat(6, 100, rng, corner.a, corner.b, corner.c,
                 ValueDistribution::Ones);
        ASSERT_EQ(m.nnz(), 1u);
        EXPECT_EQ(m.rowNnz(corner.row), 1u);
        EXPECT_EQ(m.colIdx()[0], corner.col);
        EXPECT_EQ(m.values()[0], 100.0f);
    }
}

TEST(PreferentialAttachment, HubColumnsAndHeavyRows)
{
    Rng rng(3);
    const CsrMatrix a = preferentialAttachment(2000, 8, rng);
    EXPECT_EQ(a.rows(), 2000u);
    const std::size_t mean = a.nnz() / a.rows();
    EXPECT_GE(mean, 4u);
    // Out-degree tail: some row well above the mean.
    EXPECT_GT(a.maxRowNnz(), 4 * mean);
    // In-degree hubs: early nodes collect many edges.
    const CsrMatrix t = a.transpose();
    EXPECT_GT(t.maxRowNnz(), 20 * mean);
}

TEST(Banded, StructureWithinBand)
{
    Rng rng(4);
    const std::uint32_t band = 3;
    const CsrMatrix a = banded(50, band, 0.5, rng);
    for (std::uint32_t r = 0; r < a.rows(); ++r) {
        for (std::size_t i = a.rowPtr()[r]; i < a.rowPtr()[r + 1]; ++i) {
            const std::int64_t delta =
                static_cast<std::int64_t>(a.colIdx()[i]) - r;
            EXPECT_LE(std::abs(delta), band);
        }
        // Diagonal always present.
        EXPECT_GE(a.rowNnz(r), 1u);
    }
}

TEST(ArrowBanded, DenseRowsPresent)
{
    Rng rng(5);
    const CsrMatrix a = arrowBanded(256, 4, 0.3, 3, rng);
    unsigned dense_rows = 0;
    for (std::uint32_t r = 0; r < a.rows(); ++r) {
        if (a.rowNnz(r) == a.cols())
            ++dense_rows;
    }
    EXPECT_EQ(dense_rows, 3u);
    EXPECT_EQ(a.maxRowNnz(), a.cols());
}

TEST(ArrowBanded, ZeroDenseRowsEqualsBanded)
{
    Rng rng(6);
    const CsrMatrix a = arrowBanded(128, 4, 0.3, 0, rng);
    EXPECT_LT(a.maxRowNnz(), 10u);
}

TEST(BlockDiagonal, BlockResidency)
{
    Rng rng(7);
    const std::uint32_t block = 16;
    const CsrMatrix a = blockDiagonal(64, block, 0.5, 0.1, rng);
    for (std::uint32_t r = 0; r < a.rows(); ++r) {
        for (std::size_t i = a.rowPtr()[r]; i < a.rowPtr()[r + 1]; ++i) {
            // Entries live in the row's block or the immediately next one.
            const std::uint32_t row_block = r / block;
            const std::uint32_t col_block = a.colIdx()[i] / block;
            EXPECT_LE(col_block, row_block + 1);
            EXPECT_GE(col_block, row_block); // own or next block only
        }
    }
}

TEST(Mycielskian, ExactCountsMatchTable2)
{
    // M12 is the paper's MY matrix: 3071 vertices, 407200 stored entries.
    const CsrMatrix m12 = mycielskian(12);
    EXPECT_EQ(m12.rows(), 3071u);
    EXPECT_EQ(m12.cols(), 3071u);
    EXPECT_EQ(m12.nnz(), 407200u);
    EXPECT_NEAR(m12.densityPercent(), 4.31, 0.02);
}

TEST(Mycielskian, SmallOrdersExact)
{
    // n_k = 2 n_{k-1} + 1, e_k = 3 e_{k-1} + n_{k-1}; nnz = 2 e.
    const CsrMatrix m2 = mycielskian(2);
    EXPECT_EQ(m2.rows(), 2u);
    EXPECT_EQ(m2.nnz(), 2u);
    const CsrMatrix m3 = mycielskian(3); // the 5-cycle
    EXPECT_EQ(m3.rows(), 5u);
    EXPECT_EQ(m3.nnz(), 10u);
    const CsrMatrix m4 = mycielskian(4); // the Grötzsch graph
    EXPECT_EQ(m4.rows(), 11u);
    EXPECT_EQ(m4.nnz(), 40u);
}

TEST(Mycielskian, Symmetric)
{
    const CsrMatrix m5 = mycielskian(5);
    const CsrMatrix t = m5.transpose();
    EXPECT_EQ(m5.colIdx(), t.colIdx());
    EXPECT_EQ(m5.values(), t.values());
}

TEST(Poisson2d, StencilCounts)
{
    const CsrMatrix a = poisson2d(10);
    EXPECT_EQ(a.rows(), 100u);
    // 5-point stencil: nnz = 5*n - 4*grid boundary corrections.
    EXPECT_EQ(a.nnz(), 5u * 100 - 4 * 10);
    // Interior row has 5 entries.
    EXPECT_EQ(a.rowNnz(5 * 10 + 5), 5u);
    // Corner has 3.
    EXPECT_EQ(a.rowNnz(0), 3u);
}

TEST(ZipfRows, SkewGrowsWithS)
{
    Rng rng1(8), rng2(9);
    const CsrMatrix mild = zipfRows(1024, 1024, 20000, 1.1, rng1);
    const CsrMatrix wild = zipfRows(1024, 1024, 20000, 1.8, rng2);
    EXPECT_GT(wild.maxRowNnz(), mild.maxRowNnz());
}

TEST(RandomVector, RangeAndDeterminism)
{
    Rng rng(10);
    const std::vector<float> v = randomVector(100, rng);
    ASSERT_EQ(v.size(), 100u);
    for (float e : v) {
        EXPECT_GE(e, 0.1f);
        EXPECT_LT(e, 1.0f);
    }
    Rng rng2(10);
    EXPECT_EQ(randomVector(100, rng2), v);
}

TEST(DrawValue, Distributions)
{
    Rng rng(11);
    EXPECT_EQ(drawValue(rng, ValueDistribution::Ones), 1.0f);
    for (int i = 0; i < 100; ++i) {
        const float p = drawValue(rng, ValueDistribution::PositiveUniform);
        EXPECT_GE(p, 0.1f);
        EXPECT_LT(p, 1.0f);
        const float s = drawValue(rng, ValueDistribution::SignedUniform);
        EXPECT_GE(s, -1.0f);
        EXPECT_LT(s, 1.0f);
    }
}

/**
 * FNV-1a over a matrix's rowPtr, colIdx and values bytes, chained in
 * that order (rowPtr as 8-byte size_t). Any change to the draws, the
 * sort or the order duplicates are summed in changes it.
 */
std::uint64_t
csrDigest(const CsrMatrix &m)
{
    std::uint64_t h = common::fnv1a(
        m.rowPtr().data(), m.rowPtr().size() * sizeof(std::size_t));
    h = common::fnv1a(m.colIdx().data(),
                      m.colIdx().size() * sizeof(std::uint32_t), h);
    return common::fnv1a(m.values().data(),
                         m.values().size() * sizeof(float), h);
}

constexpr std::uint64_t kGoldenSeeds[] = {1, 7, 42, 2025};

/** csrDigest(rmat(scale, 8 << scale, Rng(seed))) per kGoldenSeeds. */
struct RmatGolden
{
    std::uint32_t scale;
    std::uint64_t digest[4];
};

constexpr RmatGolden kRmatGolden[] = {
    {6, {0x919fa15f35698573ull, 0xc2374990202f1abfull,
          0xc680fa27f8e876d2ull, 0xdf4b4299cfa31a9bull}},
    {7, {0xc7ed3c1514619c86ull, 0x15b5d43d0c3776d4ull,
          0x26f3c25171e879b1ull, 0x4e7aaff3f15e7bb1ull}},
    {8, {0x0825c21f1b23cb46ull, 0xfdd66644a7f09e76ull,
          0x33ad9220955dc6a1ull, 0x56330040eba605c8ull}},
    {9, {0x91166eb5ee74eafdull, 0x33e85b0a9b3924efull,
          0xce467d98b27817f2ull, 0x63b08ee54507a5f2ull}},
    {10, {0x87861488757d0455ull, 0xf3cc6b924342b7a4ull,
          0xc44256fc5eb1fb1dull, 0xfcf97c01dbd5f7e2ull}},
    {11, {0x7d5f154f533a7a81ull, 0xab7b53262e56687cull,
          0xaadb2263afb70440ull, 0xeac401b6ae71b752ull}},
    {12, {0x3079362e441a5ab8ull, 0xd76805cc8c7116a3ull,
          0xaaeeb5288cfc77c3ull, 0xa811ddbf1889daebull}},
    {13, {0xfef22da909781cc4ull, 0x1943df9a1b4132c0ull,
          0x98686b6ee2a0fba7ull, 0xd6e73205faae7d39ull}},
    {14, {0x39efc5df94e70a90ull, 0x8487ada661f5ab02ull,
          0x052389322e145d1full, 0xa06c1f7076cb9fb9ull}},
    {15, {0x714039dda6bc8eefull, 0x40e08f739d64fc8full,
          0x626e9f9c4ae70cd4ull, 0x2bfc0509ce5a8d9aull}},
    {16, {0x9c1430e577f38d2eull, 0xee977535c0741116ull,
          0x745443e18fee305eull, 0x1a6c6b201f11f74dull}},
    {17, {0x94cfc51f3f6cbd56ull, 0x04057aa8978c9dc8ull,
          0x7af7874a7c2896f0ull, 0xa2c8b156b8260494ull}},
};

/** csrDigest of each Table 2 stand-in and of sweepCorpus(8). */
const std::map<std::string, std::uint64_t> kStandInGolden = {
    {"DY", 0x9156c6f9e0399458ull},
    {"RE", 0x6410170d0fae39baull},
    {"C5", 0x3bf2a348380e5005ull},
    {"MY", 0x9177c705bd2e168eull},
    {"VS", 0xd72a0d313b504378ull},
    {"TS", 0xd673729fa91e2f75ull},
    {"LO", 0xdc31154e3a372bafull},
    {"HA", 0x88c95b46b665876eull},
    {"TR", 0xa2909c3e8e126f26ull},
    {"CK", 0x48b5f11a9c733759ull},
    {"WI", 0xc7650f0336305520ull},
    {"EM", 0x8d8409e3a93d4da3ull},
    {"AS", 0x3f40bc33378bc557ull},
    {"OR", 0x096ff90f8326eb75ull},
    {"WK", 0x8f90a1068d89318bull},
    {"SC", 0x4a159c3f19eb4570ull},
    {"A7", 0x1dc5b540428247c8ull},
    {"CM", 0x7e035f3a8bc22a78ull},
    {"WB", 0xdeb12e9219b15be8ull},
    {"RT", 0xeb89aaba4d1b17c0ull},
    {"graph_0", 0xbc02aebcb29b6dfbull},
    {"rmat_1", 0x906d3efac876f6d5ull},
    {"zipf_2", 0x420c6bd52c2232a3ull},
    {"arrow_3", 0x4f8b007917051778ull},
    {"blockdiag_4", 0x6816103eab6cd4bdull},
    {"er_5", 0xd555a374685620e3ull},
    {"poisson_6", 0x99bdc62a0b1b923dull},
    {"mixed_7", 0x303b2093d4eed29aull},
};

TEST(Generators, GoldenDigests)
{
    for (const RmatGolden &g : kRmatGolden) {
        for (std::size_t i = 0; i < std::size(kGoldenSeeds); ++i) {
            Rng rng(kGoldenSeeds[i]);
            EXPECT_EQ(csrDigest(rmat(g.scale, std::size_t{8} << g.scale,
                                     rng)),
                      g.digest[i])
                << "rmat scale " << g.scale << " seed " << kGoldenSeeds[i];
        }
    }

    const auto variant = [](auto make) {
        Rng rng(5);
        return csrDigest(make(rng));
    };
    EXPECT_EQ(variant([](Rng &rng) {
                  return rmat(14, 8 << 14, rng, 0.7, 0.12, 0.12);
              }),
              0x39486bb89d02dd09ull) << "skewed rmat";
    EXPECT_EQ(variant([](Rng &rng) {
                  return rmat(12, 8 << 12, rng, 0.57, 0.19, 0.19,
                              ValueDistribution::SignedUniform);
              }),
              0xc97a3b2188f5b940ull) << "SignedUniform rmat";
    EXPECT_EQ(variant([](Rng &rng) {
                  return rmat(12, 8 << 12, rng, 0.57, 0.19, 0.19,
                              ValueDistribution::Ones);
              }),
              0xf6f6bb6c19d16b4cull) << "Ones rmat";
    EXPECT_EQ(variant([](Rng &rng) {
                  return erdosRenyi(3000, 2000, 40000, rng);
              }),
              0xa980b4a87891292dull) << "erdosRenyi";

    std::size_t checked = 0;
    const auto check = [&checked](const std::string &name,
                                  const CsrMatrix &m) {
        const auto it = kStandInGolden.find(name);
        ASSERT_NE(it, kStandInGolden.end()) << name;
        EXPECT_EQ(csrDigest(m), it->second) << name;
        ++checked;
    };
    for (const DatasetEntry &e : table2())
        check(e.id, e.generate());
    for (const SweepEntry &e : sweepCorpus(8))
        check(e.name, e.generate());
    EXPECT_EQ(checked, kStandInGolden.size());
}

} // namespace
} // namespace sparse
} // namespace chason
