/** @file Unit tests for lifetime statistics. */
#include <gtest/gtest.h>

#include "analysis/lifetime.h"
#include "analysis/trace_view.h"

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

TEST(Lifetime, SplitsByCategory)
{
    trace::TraceRecorder r;
    // Parameter: lives to the end (persistent).
    r.record(ev(0, trace::EventKind::kMalloc, 1, 100,
                Category::kParameter));
    // Intermediate: 40 us life.
    r.record(ev(10 * kNsPerUs, trace::EventKind::kMalloc, 2, 200,
                Category::kIntermediate));
    r.record(ev(20 * kNsPerUs, trace::EventKind::kWrite, 2, 200,
                Category::kIntermediate));
    r.record(ev(30 * kNsPerUs, trace::EventKind::kRead, 2, 200,
                Category::kIntermediate));
    r.record(ev(50 * kNsPerUs, trace::EventKind::kFree, 2, 200,
                Category::kIntermediate));
    // Input: 100 us life.
    r.record(ev(60 * kNsPerUs, trace::EventKind::kMalloc, 3, 400,
                Category::kInput));
    r.record(ev(160 * kNsPerUs, trace::EventKind::kFree, 3, 400,
                Category::kInput));

    TraceView view(r);
    const Timeline &t = view.timeline();
    const auto report = lifetime_report(t);

    const auto &param = report.of(Category::kParameter);
    EXPECT_EQ(param.blocks, 0u);
    EXPECT_EQ(param.unfreed, 1u);

    const auto &interm = report.of(Category::kIntermediate);
    EXPECT_EQ(interm.blocks, 1u);
    EXPECT_DOUBLE_EQ(interm.median_lifetime_us, 40.0);

    const auto &input = report.of(Category::kInput);
    EXPECT_DOUBLE_EQ(input.median_lifetime_us, 100.0);
}

TEST(Lifetime, EmptyTimeline)
{
    const auto report =
        lifetime_report(TraceView(trace::TraceRecorder{}).timeline());
    for (int c = 0; c < kNumCategories; ++c) {
        EXPECT_EQ(report.by_category[c].blocks, 0u);
        EXPECT_EQ(report.by_category[c].unfreed, 0u);
    }
}

}  // namespace
}  // namespace analysis
}  // namespace pinpoint
