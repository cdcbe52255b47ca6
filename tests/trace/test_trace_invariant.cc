/**
 * @file
 * The tracing layer's checked property: device spans emitted by a
 * simulation reconcile exactly with the run's CycleBreakdown — per
 * category and per PEG track. Runs both engines over several matrix
 * shapes, and a plan replay against the walk; any double-count or
 * dropped span fails here.
 */

#include "trace/attribution.h"

#include <gtest/gtest.h>

#include "arch/chason_accel.h"
#include "arch/stream_soa.h"
#include "common/rng.h"
#include "core/engine.h"
#include "sparse/generators.h"
#include "trace/trace.h"

namespace chason {
namespace trace {
namespace {

arch::ArchConfig
smallConfig()
{
    arch::ArchConfig cfg;
    cfg.sched.channels = 4;
    cfg.sched.pesOverride = 4;
    cfg.sched.rawDistance = 4;
    cfg.sched.windowCols = 128;
    cfg.sched.rowsPerLanePerPass = 64;
    return cfg;
}

CycleTotals
totalsOf(const arch::CycleBreakdown &cycles)
{
    CycleTotals t;
    t.matrixStream = cycles.matrixStream;
    t.xLoad = cycles.xLoad;
    t.pipelineFill = cycles.pipelineFill;
    t.reduction = cycles.reduction;
    t.writeback = cycles.writeback;
    t.instStream = cycles.instStream;
    t.launch = cycles.launch;
    return t;
}

core::SpmvReport
tracedRun(core::Engine::Kind kind, const sparse::CsrMatrix &a,
          TraceSink &sink)
{
    Rng rng(0xC0FFEE);
    const std::vector<float> x = sparse::randomVector(a.cols(), rng);
    const core::Engine engine(kind, smallConfig());
    ScopedSink scope(sink);
    return engine.run(a, x, "invariant");
}

void
expectReconciles(core::Engine::Kind kind, const sparse::CsrMatrix &a)
{
    TraceSink sink;
    const core::SpmvReport report = tracedRun(kind, a, sink);

    if (!kEnabled) {
        EXPECT_TRUE(sink.empty());
        return;
    }
    const AttributionCheck check = checkCycleAttribution(
        sink, totalsOf(report.cycleBreakdown),
        smallConfig().sched.channels);
    EXPECT_TRUE(check.ok) << check.message;

    // The trace carries the full attribution, so its categories (each
    // PEG repeats the lockstep matrixStream total) also reproduce the
    // report's total cycle count.
    const auto cycles = sink.categoryCycles();
    std::uint64_t total = 0;
    for (const auto &[name, value] : cycles) {
        total += name == "matrix_stream"
            ? value / smallConfig().sched.channels
            : value;
    }
    EXPECT_EQ(total, report.cycles);
}

TEST(CycleAttribution, ChasonSkewedMatrix)
{
    Rng rng(11);
    expectReconciles(core::Engine::Kind::Chason,
                     sparse::zipfRows(256, 256, 4096, 1.3, rng));
}

TEST(CycleAttribution, SerpensSkewedMatrix)
{
    Rng rng(11);
    expectReconciles(core::Engine::Kind::Serpens,
                     sparse::zipfRows(256, 256, 4096, 1.3, rng));
}

TEST(CycleAttribution, ChasonBalancedMatrix)
{
    Rng rng(12);
    expectReconciles(core::Engine::Kind::Chason,
                     sparse::banded(512, 4, 0.8, rng));
}

TEST(CycleAttribution, SerpensMultiPassMatrix)
{
    // Enough rows to force multiple passes/windows per channel.
    Rng rng(13);
    expectReconciles(core::Engine::Kind::Serpens,
                     sparse::preferentialAttachment(2048, 6, rng));
}

TEST(CycleAttribution, ChasonWithEmptyRows)
{
    Rng rng(14);
    expectReconciles(core::Engine::Kind::Chason,
                     sparse::erdosRenyi(300, 300, 900, rng));
}

/** Field-by-field equality of two device-span sequences. */
void
expectSameSpans(const TraceSink &a, const TraceSink &b)
{
    const std::vector<SpanEvent> sa = a.spans();
    const std::vector<SpanEvent> sb = b.spans();
    ASSERT_EQ(sa.size(), sb.size());
    auto arg = [](const char *name) {
        return std::string(name ? name : "");
    };
    for (std::size_t i = 0; i < sa.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(sa[i].name, sb[i].name);
        EXPECT_EQ(sa[i].cat, sb[i].cat);
        EXPECT_EQ(sa[i].track, sb[i].track);
        EXPECT_EQ(sa[i].device, sb[i].device);
        EXPECT_EQ(sa[i].begin, sb[i].begin);
        EXPECT_EQ(sa[i].dur, sb[i].dur);
        EXPECT_EQ(arg(sa[i].argName0), arg(sb[i].argName0));
        EXPECT_EQ(sa[i].argVal0, sb[i].argVal0);
        EXPECT_EQ(arg(sa[i].argName1), arg(sb[i].argName1));
        EXPECT_EQ(sa[i].argVal1, sb[i].argVal1);
    }
}

TEST(CycleAttribution, ChasonPlanReplayMatchesWalkMultiPass)
{
    // Warm served requests replay a StreamPlan instead of walking the
    // beat lists; the replay must emit the walk's device spans. 3000
    // rows over a 1024-row pass (16 lanes x 64) take three passes.
    Rng rng(16);
    const sparse::CsrMatrix a = sparse::erdosRenyi(3000, 300, 12000, rng);
    const std::vector<float> x = sparse::randomVector(a.cols(), rng);
    const core::Engine engine(core::Engine::Kind::Chason, smallConfig());
    const sched::Schedule schedule = engine.schedule(a);
    ASSERT_EQ(schedule.passes(), 3u);
    const arch::Accelerator &accel = engine.accelerator();
    const arch::StreamPlan plan(schedule, accel.migrationDepth());

    TraceSink walk_sink;
    TraceSink replay_sink;
    arch::RunResult walked;
    arch::RunResult replayed;
    {
        ScopedSink scope(walk_sink);
        walked = accel.run(schedule, x);
    }
    {
        ScopedSink scope(replay_sink);
        replayed = accel.runPlanned(schedule, plan, x);
    }
    EXPECT_EQ(walked.y, replayed.y);
    EXPECT_EQ(walked.cycles.total(), replayed.cycles.total());

    if (!kEnabled) {
        EXPECT_TRUE(walk_sink.empty());
        EXPECT_TRUE(replay_sink.empty());
        return;
    }
    EXPECT_FALSE(walk_sink.empty());
    expectSameSpans(walk_sink, replay_sink);
    auto expect_reconciles = [](const TraceSink &sink,
                                const arch::RunResult &run) {
        const AttributionCheck check = checkCycleAttribution(
            sink, totalsOf(run.cycles), smallConfig().sched.channels);
        EXPECT_TRUE(check.ok) << check.message;
    };
    expect_reconciles(walk_sink, walked);
    expect_reconciles(replay_sink, replayed);
}

TEST(CycleAttribution, EstimateRecordsNoSpans)
{
    // An estimate passes no sink: it must stay out of an active trace.
    Rng rng(17);
    const sparse::CsrMatrix a = sparse::erdosRenyi(3000, 300, 12000, rng);
    const core::Engine engine(core::Engine::Kind::Chason, smallConfig());
    const sched::Schedule schedule = engine.schedule(a);
    TraceSink sink;
    {
        ScopedSink scope(sink);
        const arch::Timeline estimate =
            engine.accelerator().timeline(schedule, nullptr);
        EXPECT_GT(estimate.cycles.total(), 0u);
    }
    EXPECT_TRUE(sink.empty());
}

TEST(CycleAttribution, DetectsMissingCycles)
{
    if (!kEnabled)
        GTEST_SKIP() << "tracing compiled out";
    Rng rng(15);
    const sparse::CsrMatrix a = sparse::erdosRenyi(128, 128, 512, rng);
    TraceSink sink;
    const core::SpmvReport report =
        tracedRun(core::Engine::Kind::Chason, a, sink);

    // Tamper with the expectation: the checker must notice.
    CycleTotals wrong = totalsOf(report.cycleBreakdown);
    wrong.reduction += 1;
    const AttributionCheck check = checkCycleAttribution(
        sink, wrong, smallConfig().sched.channels);
    EXPECT_FALSE(check.ok);
    EXPECT_FALSE(check.message.empty());
}

TEST(CycleAttribution, PerPegClauseDetectsTrackImbalance)
{
    if (!kEnabled)
        GTEST_SKIP() << "tracing compiled out";
    // Hand-built sink where category totals agree but one track lost a
    // span: clause 2 must catch it.
    TraceSink sink;
    auto span = [](std::uint32_t track, double dur) {
        SpanEvent s;
        s.name = "stream_busy";
        s.cat = Category::MatrixStream;
        s.track = track;
        s.device = true;
        s.dur = dur;
        return s;
    };
    sink.recordSpan(span(0, 10));
    sink.recordSpan(span(1, 6)); // should be 10 like track 0
    CycleTotals expected;
    expected.matrixStream = 8; // category average masks the imbalance
    const AttributionCheck check =
        checkCycleAttribution(sink, expected, 2);
    EXPECT_FALSE(check.ok);
}

} // namespace
} // namespace trace
} // namespace chason
