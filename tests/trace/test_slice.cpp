/** @file Tests for iteration-window trace slicing. */
#include <gtest/gtest.h>

#include "analysis/breakdown.h"
#include "analysis/timeline.h"
#include "analysis/trace_view.h"
#include "core/check.h"
#include "nn/models.h"
#include "runtime/session.h"
#include "support/trace_counts.h"
#include "trace/slice.h"

namespace pinpoint {
namespace trace {
namespace {

TraceRecorder
mlp_trace(int iterations = 6)
{
    runtime::SessionConfig config;
    config.batch = 16;
    config.iterations = iterations;
    return runtime::run_training(nn::mlp(), config).trace;
}

TEST(Slice, WindowKeepsOnlyRequestedIterations)
{
    const auto full = mlp_trace();
    const auto window = slice_iterations(full, 2, 3);
    for (const auto &e : window.events()) {
        if (e.iteration == kSetupIteration)
            continue;
        EXPECT_GE(e.iteration, 2u);
        EXPECT_LE(e.iteration, 3u);
    }
    EXPECT_LT(window.size(), full.size());
    EXPECT_GT(window.size(), 0u);
}

TEST(Slice, ResultReplaysThroughAnalyses)
{
    const auto window = slice_iterations(mlp_trace(), 1, 4);
    // Timeline and breakdown both PP_CHECK trace consistency.
    EXPECT_NO_THROW(analysis::TraceView(window).timeline());
    EXPECT_NO_THROW(analysis::occupation_breakdown(
        analysis::TraceView(window)));
    EXPECT_EQ(test_support::count_kind(window, EventKind::kMalloc),
              test_support::count_kind(window, EventKind::kFree))
        << "open blocks must be closed";
}

TEST(Slice, SetupCanBeDropped)
{
    SliceOptions opts;
    opts.keep_setup = false;
    const auto window = slice_iterations(mlp_trace(), 0, 1, opts);
    for (const auto &e : window.events())
        EXPECT_NE(e.iteration, kSetupIteration);
    EXPECT_NO_THROW(analysis::TraceView(window).timeline());
}

TEST(Slice, AccessesToPreWindowBlocksAreDropped)
{
    SliceOptions opts;
    opts.keep_setup = false;
    const auto window = slice_iterations(mlp_trace(), 2, 2, opts);
    // Parameters were allocated at setup (dropped): no event may
    // reference their blocks.
    const analysis::TraceView view(window);
    const analysis::Timeline &t =
        view.timeline();  // would throw on stray accesses
    for (const auto &b : t.blocks())
        EXPECT_GE(b.alloc_iteration, 2u);
}

TEST(Slice, SyntheticFreesAreLabeled)
{
    const auto window = slice_iterations(mlp_trace(), 0, 0);
    std::size_t closes = 0;
    for (const auto &e : window.events())
        if (window.op_name(e.op) == "slice.close")
            ++closes;
    // Parameters (4) stay live past iteration 0.
    EXPECT_GE(closes, 4u);
}

TEST(Slice, InvalidWindowRejected)
{
    const auto full = mlp_trace(2);
    EXPECT_THROW(slice_iterations(full, 3, 2), Error);
}

TEST(Slice, EmptyWindowOfOutOfRangeIterations)
{
    SliceOptions opts;
    opts.keep_setup = false;
    const auto window =
        slice_iterations(mlp_trace(2), 50, 60, opts);
    EXPECT_TRUE(window.empty());
}

}  // namespace
}  // namespace trace
}  // namespace pinpoint
