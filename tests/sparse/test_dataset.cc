/**
 * @file
 * Tests for the Table 2 registry and sweep corpus.
 */

#include "sparse/dataset.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>

namespace chason {
namespace sparse {
namespace {

TEST(Table2, TwentyEntriesTenPerCollection)
{
    const auto &entries = table2();
    ASSERT_EQ(entries.size(), 20u);
    unsigned suite = 0, snap = 0;
    std::set<std::string> tags;
    for (const DatasetEntry &e : entries) {
        (e.collection == Collection::SuiteSparse ? suite : snap) += 1;
        tags.insert(e.id);
    }
    EXPECT_EQ(suite, 10u);
    EXPECT_EQ(snap, 10u);
    EXPECT_EQ(tags.size(), 20u) << "tags must be unique";
}

TEST(Table2, LookupByTag)
{
    EXPECT_EQ(table2ByTag("MY").name, "mycielskian12");
    EXPECT_EQ(table2ByTag("SC").name, "soc-Slashdot0811");
}

TEST(Table2Death, UnknownTagFatal)
{
    EXPECT_EXIT(table2ByTag("XX"), ::testing::ExitedWithCode(1),
                "unknown");
}

TEST(Table2, MyIsExact)
{
    const DatasetEntry &my = table2ByTag("MY");
    const CsrMatrix a = my.generate();
    EXPECT_EQ(a.nnz(), my.paperNnz);
}

/** Structural reproduction: NNZ within a band of the published value. */
class Table2Entry : public ::testing::TestWithParam<std::string>
{
};

TEST_P(Table2Entry, NnzWithinBandOfPaper)
{
    const DatasetEntry &e = table2ByTag(GetParam());
    const CsrMatrix a = e.generate();
    const double ratio = static_cast<double>(a.nnz()) /
        static_cast<double>(e.paperNnz);
    EXPECT_GT(ratio, 0.55) << e.name << ": " << a.describe();
    EXPECT_LT(ratio, 1.8) << e.name << ": " << a.describe();
    EXPECT_GT(a.rows(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllTags, Table2Entry,
    ::testing::Values("DY", "RE", "C5", "MY", "VS", "TS", "LO", "HA",
                      "TR", "CK", "WI", "EM", "AS", "OR", "WK", "SC",
                      "A7", "CM", "WB", "RT"),
    [](const auto &info) { return info.param; });

TEST(Table2, GenerationIsDeterministic)
{
    const DatasetEntry &e = table2ByTag("DY");
    const CsrMatrix a = e.generate();
    const CsrMatrix b = e.generate();
    EXPECT_EQ(a.colIdx(), b.colIdx());
    EXPECT_EQ(a.values(), b.values());
}

TEST(LoadOrGenerate, FallsBackToSynthesis)
{
    const DatasetEntry &e = table2ByTag("CM");
    std::string error;
    const std::optional<CsrMatrix> a =
        loadOrGenerate(e, "/nonexistent-dir", error);
    ASSERT_TRUE(a) << error;
    EXPECT_GT(a->nnz(), 0u);
}

TEST(LoadOrGenerate, MalformedFileReturnsItsParseError)
{
    const DatasetEntry &e = table2ByTag("CM");
    const std::string dir = ::testing::TempDir() + "chason_dataset_mtx";
    std::filesystem::create_directories(dir);
    {
        std::ofstream out(dir + "/" + e.name + ".mtx");
        out << "%%MatrixMarket matrix coordinate real general\n"
               "4 4 2\n"
               "1 1 1.0\n";
    }
    std::string error;
    EXPECT_FALSE(loadOrGenerate(e, dir, error));
    EXPECT_NE(error.find("truncated at entry 1"), std::string::npos)
        << error;
    std::filesystem::remove_all(dir);
}


TEST(SerpensDozen, TwelveLargeEntries)
{
    const auto dozen = sparse::serpensDozen();
    ASSERT_EQ(dozen.size(), 12u);
    std::set<std::string> names;
    for (const auto &e : dozen)
        names.insert(e.name);
    EXPECT_EQ(names.size(), 12u);
}

TEST(SerpensDozen, EntriesAreLargeAndBalancedOnAverage)
{
    // Spot-check two representatives (generating all 12 is bench work).
    const auto dozen = sparse::serpensDozen();
    const sparse::CsrMatrix mesh = dozen[4].generate(); // mesh_banded
    EXPECT_GT(mesh.rows(), 100000u);
    EXPECT_LT(mesh.maxRowNnz(), 20u);
    const sparse::CsrMatrix p2p = dozen[9].generate();
    EXPECT_GT(p2p.nnz(), 1000000u);
}

TEST(SweepCorpus, PrefixProperty)
{
    const auto small = sweepCorpus(16);
    const auto bigger = sweepCorpus(32);
    ASSERT_EQ(small.size(), 16u);
    ASSERT_EQ(bigger.size(), 32u);
    for (std::size_t i = 0; i < small.size(); ++i)
        EXPECT_EQ(small[i].name, bigger[i].name);
}

TEST(SweepCorpus, EntriesGenerateAndVary)
{
    const auto corpus = sweepCorpus(8);
    std::set<std::size_t> nnzs;
    for (const SweepEntry &e : corpus) {
        const CsrMatrix a = e.generate();
        EXPECT_GT(a.nnz(), 0u) << e.name;
        nnzs.insert(a.nnz());
    }
    EXPECT_GT(nnzs.size(), 4u) << "corpus should be diverse";
}

TEST(SweepCorpus, DeterministicAcrossCalls)
{
    const auto a = sweepCorpus(8);
    const auto b = sweepCorpus(8);
    for (std::size_t i = 0; i < a.size(); ++i) {
        const CsrMatrix ma = a[i].generate();
        const CsrMatrix mb = b[i].generate();
        EXPECT_EQ(ma.colIdx(), mb.colIdx()) << a[i].name;
    }
}

} // namespace
} // namespace sparse
} // namespace chason
