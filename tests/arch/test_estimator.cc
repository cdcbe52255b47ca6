/**
 * @file
 * The timing model pinned to recorded values: on every matrix family,
 * Accelerator::run() and Accelerator::timeline() must report the same
 * golden CycleBreakdown, field by field. The goldens are constants, not
 * a second model, so any change to the timing model shows up here as a
 * changed number.
 */

#include <gtest/gtest.h>

#include "arch/chason_accel.h"
#include "arch/serpens_accel.h"
#include "common/rng.h"
#include "core/engine.h"
#include "sched/crhcs.h"
#include "sched/pe_aware.h"
#include "sparse/generators.h"

namespace chason {
namespace arch {
namespace {

struct EstCase
{
    std::string name;
    std::uint64_t seed;
    std::function<sparse::CsrMatrix(Rng &)> make;
    /** {matrixStream, xLoad, pipelineFill, reduction, writeback,
     *  instStream, launch} of the default Chasoň and Serpens runs. */
    CycleBreakdown chason;
    CycleBreakdown serpens;
};

void
PrintTo(const EstCase &c, std::ostream *os)
{
    *os << c.name;
}

std::vector<EstCase>
cases()
{
    return {
        {"erdos", 1,
         [](Rng &r) { return sparse::erdosRenyi(500, 700, 6000, r); },
         {70, 59, 48, 32, 43, 1, 61},
         {233, 44, 48, 0, 32, 1, 45}},
        {"zipf", 2,
         [](Rng &r) { return sparse::zipfRows(400, 400, 5000, 1.3, r); },
         {581, 34, 48, 32, 34, 1, 61},
         {3891, 25, 48, 0, 25, 1, 45}},
        {"arrow", 3,
         [](Rng &r) { return sparse::arrowBanded(600, 6, 0.3, 3, r); },
         {893, 51, 48, 32, 51, 1, 61},
         {5994, 38, 48, 0, 38, 1, 45}},
        {"graph", 4,
         [](Rng &r) { return sparse::preferentialAttachment(900, 6, r); },
         {159, 77, 48, 32, 77, 1, 61},
         {897, 57, 48, 0, 57, 1, 45}},
        {"multiwindow", 5,
         [](Rng &r) { return sparse::erdosRenyi(200, 20000, 9000, r); },
         {133, 1597, 144, 32, 18, 3, 61},
         {774, 767, 144, 0, 13, 3, 45}},
        {"multipass", 6,
         [](Rng &r) { return sparse::erdosRenyi(300000, 200, 40000, r); },
         {424, 18, 48, 32, 25137, 1, 61},
         {375, 13, 48, 0, 18750, 1, 45}},
        {"mycielskian", 7, [](Rng &) { return sparse::mycielskian(7); },
         {70, 9, 48, 32, 9, 1, 61},
         {461, 6, 48, 0, 6, 1, 45}},
    };
}

void
expectBreakdown(const CycleBreakdown &got, const CycleBreakdown &want)
{
    EXPECT_EQ(got.matrixStream, want.matrixStream);
    EXPECT_EQ(got.xLoad, want.xLoad);
    EXPECT_EQ(got.pipelineFill, want.pipelineFill);
    EXPECT_EQ(got.reduction, want.reduction);
    EXPECT_EQ(got.writeback, want.writeback);
    EXPECT_EQ(got.instStream, want.instStream);
    EXPECT_EQ(got.launch, want.launch);
    EXPECT_EQ(got.total(), want.total());
}

/** Run and timeline of @p accel both report @p golden. */
void
expectGolden(const Accelerator &accel, const sched::Schedule &sch,
             const std::vector<float> &x, const CycleBreakdown &golden)
{
    const RunResult run = accel.run(sch, x);
    const Timeline timeline = accel.timeline(sch, nullptr);
    {
        SCOPED_TRACE("run");
        expectBreakdown(run.cycles, golden);
    }
    {
        SCOPED_TRACE("timeline");
        expectBreakdown(timeline.cycles, golden);
    }
    const double golden_us =
        static_cast<double>(golden.total()) / accel.frequencyMhz();
    EXPECT_NEAR(run.latencyUs, golden_us, 1e-9);
    EXPECT_NEAR(timeline.latencyUs, golden_us, 1e-9);
}

class TimelineGolden : public ::testing::TestWithParam<EstCase>
{
};

TEST_P(TimelineGolden, ChasonCyclesExact)
{
    Rng rng(GetParam().seed);
    const sparse::CsrMatrix a = GetParam().make(rng);
    const std::vector<float> x = sparse::randomVector(a.cols(), rng);
    const ArchConfig cfg;
    const sched::Schedule sch =
        sched::CrhcsScheduler(cfg.sched).schedule(a);
    expectGolden(ChasonAccelerator(cfg), sch, x, GetParam().chason);
}

TEST_P(TimelineGolden, SerpensCyclesExact)
{
    Rng rng(GetParam().seed + 100);
    const sparse::CsrMatrix a = GetParam().make(rng);
    const std::vector<float> x = sparse::randomVector(a.cols(), rng);
    ArchConfig cfg;
    cfg.sched.migrationDepth = 0;
    const sched::Schedule sch =
        sched::PeAwareScheduler(cfg.sched).schedule(a);
    expectGolden(SerpensAccelerator(cfg), sch, x, GetParam().serpens);
}

INSTANTIATE_TEST_SUITE_P(
    Families, TimelineGolden, ::testing::ValuesIn(cases()),
    [](const auto &info) { return info.param.name; });

TEST(Timeline, FrequencyPerDatapath)
{
    EXPECT_NEAR(ChasonAccelerator(ArchConfig{}).frequencyMhz(), 301.0, 0.5);
    ArchConfig serpens;
    serpens.sched.migrationDepth = 0;
    EXPECT_NEAR(SerpensAccelerator(serpens).frequencyMhz(), 223.0, 0.5);
}

} // namespace
} // namespace arch
} // namespace chason
