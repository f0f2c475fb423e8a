/** @file Unit tests for the occupation breakdown replay. */
#include <gtest/gtest.h>

#include "analysis/breakdown.h"
#include "analysis/trace_view.h"
#include "core/check.h"

namespace pinpoint {
namespace analysis {
namespace {

trace::MemoryEvent
ev(TimeNs t, trace::EventKind kind, BlockId block, std::size_t size,
   Category cat)
{
    trace::MemoryEvent e;
    e.time = t;
    e.kind = kind;
    e.block = block;
    e.size = size;
    e.category = cat;
    return e;
}

TEST(Breakdown, PeakSnapshotSplitsByCategory)
{
    trace::TraceRecorder r;
    r.record(ev(0, trace::EventKind::kMalloc, 1, 100,
                Category::kParameter));
    r.record(ev(10, trace::EventKind::kMalloc, 2, 50,
                Category::kInput));
    r.record(ev(20, trace::EventKind::kMalloc, 3, 300,
                Category::kIntermediate));
    r.record(ev(30, trace::EventKind::kFree, 3, 300,
                Category::kIntermediate));
    r.record(ev(40, trace::EventKind::kMalloc, 4, 60,
                Category::kIntermediate));

    const auto b = occupation_breakdown(TraceView(r));
    EXPECT_EQ(b.peak_total(), 450u);
    EXPECT_EQ(b.peak_time, 20u);
    EXPECT_EQ(b.at_peak[static_cast<int>(Category::kParameter)],
              100u);
    EXPECT_EQ(b.at_peak[static_cast<int>(Category::kInput)], 50u);
    EXPECT_EQ(b.at_peak[static_cast<int>(Category::kIntermediate)],
              300u);
    EXPECT_NEAR(b.fraction(Category::kIntermediate), 300.0 / 450.0,
                1e-12);
}

TEST(Breakdown, PerCategoryPeaksAreIndependent)
{
    trace::TraceRecorder r;
    r.record(ev(0, trace::EventKind::kMalloc, 1, 200,
                Category::kInput));
    r.record(ev(10, trace::EventKind::kFree, 1, 200,
                Category::kInput));
    r.record(ev(20, trace::EventKind::kMalloc, 2, 150,
                Category::kIntermediate));

    const auto b = occupation_breakdown(TraceView(r));
    // Input peaked at 200 even though the global peak holds none.
    EXPECT_EQ(b.peak_per_category[static_cast<int>(Category::kInput)],
              200u);
    EXPECT_EQ(b.peak_total(), 200u);
    EXPECT_EQ(b.at_peak[static_cast<int>(Category::kIntermediate)],
              0u);
}

TEST(Breakdown, ReadsAndWritesDoNotChangeOccupancy)
{
    trace::TraceRecorder r;
    r.record(ev(0, trace::EventKind::kMalloc, 1, 128,
                Category::kInput));
    r.record(ev(5, trace::EventKind::kWrite, 1, 128,
                Category::kInput));
    r.record(ev(9, trace::EventKind::kRead, 1, 128,
                Category::kInput));
    const auto b = occupation_breakdown(TraceView(r));
    EXPECT_EQ(b.peak_total(), 128u);
}

TEST(Breakdown, EmptyTrace)
{
    const auto b = occupation_breakdown(TraceView(trace::TraceRecorder{}));
    EXPECT_EQ(b.peak_total(), 0u);
    EXPECT_DOUBLE_EQ(b.fraction(Category::kInput), 0.0);
}

TEST(Breakdown, RejectsInconsistentTraces)
{
    trace::TraceRecorder double_malloc;
    double_malloc.record(ev(0, trace::EventKind::kMalloc, 1, 10,
                            Category::kInput));
    double_malloc.record(ev(1, trace::EventKind::kMalloc, 1, 10,
                            Category::kInput));
    EXPECT_THROW(occupation_breakdown(TraceView(double_malloc)), Error);

    trace::TraceRecorder stray_free;
    stray_free.record(
        ev(0, trace::EventKind::kFree, 7, 10, Category::kInput));
    EXPECT_THROW(occupation_breakdown(TraceView(stray_free)), Error);
}

TEST(Breakdown, FirstPeakInstantWins)
{
    trace::TraceRecorder r;
    r.record(ev(0, trace::EventKind::kMalloc, 1, 100,
                Category::kInput));
    r.record(ev(10, trace::EventKind::kFree, 1, 100,
                Category::kInput));
    r.record(ev(20, trace::EventKind::kMalloc, 2, 100,
                Category::kIntermediate));
    const auto b = occupation_breakdown(TraceView(r));
    EXPECT_EQ(b.peak_time, 0u) << "ties keep the earliest peak";
    EXPECT_EQ(b.at_peak[static_cast<int>(Category::kInput)], 100u);
}

}  // namespace
}  // namespace analysis
}  // namespace pinpoint
