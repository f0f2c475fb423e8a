/** @file Unit tests for the occupancy time series. */
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/breakdown.h"
#include "analysis/series.h"
#include "analysis/trace_view.h"
#include "core/check.h"
#include "nn/models.h"
#include "runtime/session.h"

namespace pinpoint {
namespace analysis {
namespace {

trace::MemoryEvent
ev(TimeNs t, trace::EventKind kind, BlockId block, std::size_t size,
   Category cat = Category::kIntermediate)
{
    trace::MemoryEvent e;
    e.time = t;
    e.kind = kind;
    e.block = block;
    e.size = size;
    e.category = cat;
    return e;
}

TEST(Series, TracksEdgesExactly)
{
    trace::TraceRecorder r;
    r.record(ev(0, trace::EventKind::kMalloc, 1, 100,
                Category::kParameter));
    r.record(ev(10, trace::EventKind::kMalloc, 2, 50));
    r.record(ev(20, trace::EventKind::kWrite, 2, 50));  // no edge
    r.record(ev(30, trace::EventKind::kFree, 2, 50));

    const auto series = occupancy_series(TraceView(r));
    ASSERT_EQ(series.size(), 3u);
    EXPECT_EQ(series[0].time, 0u);
    EXPECT_EQ(series[0].total(), 100u);
    EXPECT_EQ(series[1].total(), 150u);
    EXPECT_EQ(series[2].total(), 100u);
    EXPECT_EQ(series[1].bytes[static_cast<int>(Category::kParameter)],
              100u);
}

TEST(Series, CoalescesSameInstantEdges)
{
    trace::TraceRecorder r;
    r.record(ev(5, trace::EventKind::kMalloc, 1, 10));
    r.record(ev(5, trace::EventKind::kMalloc, 2, 20));
    const auto series = occupancy_series(TraceView(r));
    ASSERT_EQ(series.size(), 1u);
    EXPECT_EQ(series[0].total(), 30u);
}

TEST(Series, ThinningKeepsThePeak)
{
    runtime::SessionConfig config;
    config.batch = 32;
    config.iterations = 10;
    const auto r = runtime::run_training(nn::mlp(), config);
    const auto full = occupancy_series(r.view());
    const auto thin = occupancy_series(r.view(), 32);
    EXPECT_LE(thin.size(), 34u);
    EXPECT_LT(thin.size(), full.size());
    // The peak sample sits between its bucket's first sample and the
    // next bucket's: the thinned series still runs forward in time.
    for (std::size_t i = 1; i < thin.size(); ++i)
        EXPECT_LE(thin[i - 1].time, thin[i].time) << i;

    const auto peak_of = [](const std::vector<OccupancyPoint> &s) {
        std::size_t best = 0;
        for (const auto &p : s)
            best = std::max(best, p.total());
        return best;
    };
    EXPECT_EQ(peak_of(thin), peak_of(full));
    EXPECT_EQ(peak_of(full),
              occupation_breakdown(r.view()).peak_total());
}

TEST(Series, CsvRendering)
{
    trace::TraceRecorder r;
    r.record(ev(7, trace::EventKind::kMalloc, 1, 64,
                Category::kInput));
    std::stringstream ss;
    write_series_csv(occupancy_series(TraceView(r)), ss);
    EXPECT_EQ(ss.str(),
              "time_ns,input,parameter,intermediate,total\n"
              "7,64,0,0,64\n");
}

TEST(Series, EmptyTrace)
{
    EXPECT_TRUE(occupancy_series(TraceView(trace::TraceRecorder{})).empty());
}

TEST(Series, RejectsInconsistentTrace)
{
    trace::TraceRecorder r;
    r.record(ev(0, trace::EventKind::kFree, 9, 1));
    EXPECT_THROW(occupancy_series(TraceView(r)), Error);
}

}  // namespace
}  // namespace analysis
}  // namespace pinpoint
