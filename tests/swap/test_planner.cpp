/** @file Unit tests for the automatic swap planner. */
#include <gtest/gtest.h>

#include <cstddef>
#include <utility>

#include "analysis/swap_model.h"
#include "core/check.h"
#include "analysis/trace_view.h"
#include "swap/planner.h"

namespace pinpoint {
namespace swap {
namespace {

const analysis::LinkBandwidth kLink{6.4e9, 6.3e9};

trace::MemoryEvent
ev(TimeNs t, trace::EventKind kind, BlockId block, std::size_t size)
{
    trace::MemoryEvent e;
    e.time = t;
    e.kind = kind;
    e.block = block;
    e.size = size;
    return e;
}

/** Block with one huge internal access gap (the Fig. 4 outlier). */
trace::TraceRecorder
outlier_trace()
{
    trace::TraceRecorder r;
    const std::size_t size = 1200ull * 1024 * 1024;
    r.record(ev(0, trace::EventKind::kMalloc, 1, size));
    r.record(ev(10, trace::EventKind::kWrite, 1, size));
    r.record(ev(840211 * kNsPerUs, trace::EventKind::kRead, 1, size));
    r.record(ev(840300 * kNsPerUs, trace::EventKind::kFree, 1, size));
    return r;
}

PlannerOptions
default_options()
{
    PlannerOptions o;
    o.link = kLink;
    return o;
}

TEST(SwapPlanner, SchedulesTheOutlier)
{
    SwapPlanner planner(default_options());
    const auto plan = planner.plan(analysis::TraceView(outlier_trace()));
    ASSERT_EQ(plan.decisions.size(), 1u);
    const auto &d = plan.decisions[0];
    EXPECT_EQ(d.block, 1u);
    EXPECT_EQ(d.gap_start, 10u);
    EXPECT_EQ(d.gap_end, 840211 * kNsPerUs);
    EXPECT_GT(d.hide_ratio, 1.0);
    EXPECT_EQ(d.overhead, 0u);
    EXPECT_EQ(totals_of(plan).overhead, 0u);
    EXPECT_EQ(totals_of(plan).bytes, 1200ull * 1024 * 1024);
}

TEST(SwapPlanner, PeakReductionCountsResidencyWindowGaps)
{
    // The peak instant must fall inside the *residency window* —
    // after the swap-out transfer completes (~197 ms for 1200 MB at
    // 6.4 GB/s) and before the swap-in starts (~640 ms) — which a
    // transient block at 400 ms arranges.
    trace::TraceRecorder r;
    const std::size_t big = 1200ull * 1024 * 1024;
    const std::size_t small = 100ull * 1024 * 1024;
    r.record(ev(0, trace::EventKind::kMalloc, 1, big));
    r.record(ev(10, trace::EventKind::kWrite, 1, big));
    r.record(ev(400 * kNsPerMs, trace::EventKind::kMalloc, 2, small));
    r.record(ev(401 * kNsPerMs, trace::EventKind::kFree, 2, small));
    r.record(ev(840211 * kNsPerUs, trace::EventKind::kRead, 1, big));
    r.record(ev(840300 * kNsPerUs, trace::EventKind::kFree, 1, big));

    SwapPlanner planner(default_options());
    const analysis::TraceView view(r);
    const auto plan = planner.plan(view);
    EXPECT_EQ(view.timeline().peak_bytes(), big + small);
    EXPECT_EQ(plan.peak_reduction_bytes, big)
        << "the big block is off-device at the peak instant";
}

TEST(SwapPlanner, NoPeakReductionWhilePeakSitsInsideTransfer)
{
    // Same trace but the transient peaks at 1 ms — while the big
    // block's swap-out is still on the wire, so the block is still
    // resident and crediting its size would be optimistic (the old
    // raw-gap test credited it from anywhere in the gap).
    trace::TraceRecorder r;
    const std::size_t big = 1200ull * 1024 * 1024;
    const std::size_t small = 100ull * 1024 * 1024;
    r.record(ev(0, trace::EventKind::kMalloc, 1, big));
    r.record(ev(10, trace::EventKind::kWrite, 1, big));
    r.record(ev(kNsPerMs, trace::EventKind::kMalloc, 2, small));
    r.record(ev(2 * kNsPerMs, trace::EventKind::kFree, 2, small));
    r.record(ev(840211 * kNsPerUs, trace::EventKind::kRead, 1, big));
    r.record(ev(840300 * kNsPerUs, trace::EventKind::kFree, 1, big));

    const analysis::TraceView view(r);
    const auto plan = SwapPlanner(default_options()).plan(view);
    EXPECT_EQ(view.timeline().peak_bytes(), big + small);
    EXPECT_EQ(plan.peak_reduction_bytes, 0u)
        << "the swap-out has not completed at the peak instant";
}

TEST(SwapPlanner, NoPeakReductionWhenPeakIsOutsideGaps)
{
    SwapPlanner planner(default_options());
    const analysis::TraceView view(outlier_trace());
    const auto plan = planner.plan(view);
    // Single-block trace: the peak is the alloc instant, which
    // precedes the first access, so nothing is off-device there.
    EXPECT_EQ(view.timeline().peak_bytes(), 1200ull * 1024 * 1024);
    EXPECT_EQ(plan.peak_reduction_bytes, 0u);
}

TEST(SwapPlanner, SmallBlocksAreIgnored)
{
    trace::TraceRecorder r;
    r.record(ev(0, trace::EventKind::kMalloc, 1, 4096));
    r.record(ev(10, trace::EventKind::kWrite, 1, 4096));
    r.record(ev(kNsPerSec, trace::EventKind::kRead, 1, 4096));
    SwapPlanner planner(default_options());
    EXPECT_TRUE(planner.plan(analysis::TraceView(r)).decisions.empty());
}

TEST(SwapPlanner, TightGapsAreNotHideable)
{
    trace::TraceRecorder r;
    const std::size_t size = 64ull * 1024 * 1024;  // needs ~20 ms
    r.record(ev(0, trace::EventKind::kMalloc, 1, size));
    r.record(ev(10, trace::EventKind::kWrite, 1, size));
    r.record(ev(kNsPerMs, trace::EventKind::kRead, 1, size));
    SwapPlanner planner(default_options());
    EXPECT_TRUE(planner.plan(analysis::TraceView(r)).decisions.empty());
}

TEST(SwapPlanner, AllowOverheadSchedulesWithStall)
{
    trace::TraceRecorder r;
    const std::size_t size = 64ull * 1024 * 1024;
    r.record(ev(0, trace::EventKind::kMalloc, 1, size));
    r.record(ev(10, trace::EventKind::kWrite, 1, size));
    r.record(ev(10 * kNsPerMs, trace::EventKind::kRead, 1, size));

    PlannerOptions opts = default_options();
    opts.allow_overhead = true;
    const auto plan = SwapPlanner(opts).plan(analysis::TraceView(r));
    ASSERT_EQ(plan.decisions.size(), 1u);
    const TimeNs needed = analysis::min_interval_for(size, kLink);
    EXPECT_EQ(plan.decisions[0].overhead,
              needed - (10 * kNsPerMs - 10));
    EXPECT_EQ(totals_of(plan).overhead, plan.decisions[0].overhead);
}

TEST(SwapPlanner, OverheadSaturatesAtZeroUnderSafetyFactor)
{
    // gap = 1.5 * needed: not hideable at safety 2.0, yet the raw
    // round trip fits (needed <= gap). With allow_overhead the
    // decision is still scheduled and its overhead must clamp to 0
    // — the seed computed needed - gap, wrapping the unsigned
    // TimeNs to ~2^64 and corrupting the predicted overhead.
    trace::TraceRecorder r;
    const std::size_t size = 100ull * 1024 * 1024;
    const TimeNs needed = analysis::min_interval_for(size, kLink);
    r.record(ev(0, trace::EventKind::kMalloc, 1, size));
    r.record(ev(10, trace::EventKind::kWrite, 1, size));
    r.record(ev(10 + needed * 3 / 2, trace::EventKind::kRead, 1,
                size));

    PlannerOptions opts = default_options();
    opts.safety_factor = 2.0;
    opts.allow_overhead = true;
    const auto plan = SwapPlanner(opts).plan(analysis::TraceView(r));
    ASSERT_EQ(plan.decisions.size(), 1u);
    EXPECT_EQ(plan.decisions[0].overhead, 0u);
    EXPECT_EQ(totals_of(plan).overhead, 0u);
}

TEST(SwapPlanner, SafetyFactorTightensTheBound)
{
    trace::TraceRecorder r;
    const std::size_t size = 100ull * 1024 * 1024;
    const TimeNs needed = analysis::min_interval_for(size, kLink);
    r.record(ev(0, trace::EventKind::kMalloc, 1, size));
    r.record(ev(10, trace::EventKind::kWrite, 1, size));
    // Gap of 1.5x the bound: fine at safety 1.0, rejected at 2.0.
    r.record(ev(10 + needed * 3 / 2, trace::EventKind::kRead, 1,
                size));

    PlannerOptions loose = default_options();
    EXPECT_EQ(SwapPlanner(loose)
                  .plan(analysis::TraceView(r))
                  .decisions.size(),
              1u);
    PlannerOptions strict = default_options();
    strict.safety_factor = 2.0;
    EXPECT_TRUE(SwapPlanner(strict)
                    .plan(analysis::TraceView(r))
                    .decisions.empty());
}

/** A 100 MiB block's gap of four round trips, from 10 ns. */
constexpr std::size_t kEvalSize = 100ull * 1024 * 1024;
constexpr TimeNs kEvalStart = 10;

TEST(GapEvaluation, PeakAtSwapOutCompletionIsCredited)
{
    const TimeNs out_time = analysis::transfer_ns(kEvalSize, kLink.d2h_bps);
    const TimeNs gap_end =
        kEvalStart + 4 * analysis::min_interval_for(kEvalSize, kLink);
    const TimeNs out_done = kEvalStart + out_time;
    EXPECT_TRUE(evaluate_swap_gap(kEvalSize, kEvalStart, gap_end,
                                  out_done, kLink, 1.0)
                    .covers_peak);
    // One ns earlier the swap-out is still in flight.
    EXPECT_FALSE(evaluate_swap_gap(kEvalSize, kEvalStart, gap_end,
                                   out_done - 1, kLink, 1.0)
                     .covers_peak);
    // A per-transfer latency delays the completion by that much.
    const TimeNs latency = 5 * kNsPerUs;
    EXPECT_FALSE(evaluate_swap_gap(kEvalSize, kEvalStart, gap_end,
                                   out_done + latency - 1, kLink, 1.0,
                                   latency)
                     .covers_peak);
    EXPECT_TRUE(evaluate_swap_gap(kEvalSize, kEvalStart, gap_end,
                                  out_done + latency, kLink, 1.0,
                                  latency)
                    .covers_peak);
}

TEST(GapEvaluation, PeakAtSwapInStartIsNotCredited)
{
    const TimeNs in_time = analysis::transfer_ns(kEvalSize, kLink.h2d_bps);
    const TimeNs gap_end =
        kEvalStart + 4 * analysis::min_interval_for(kEvalSize, kLink);
    const TimeNs in_start = gap_end - in_time;
    // The swap-in has begun: the block is back on the device.
    EXPECT_FALSE(evaluate_swap_gap(kEvalSize, kEvalStart, gap_end,
                                   in_start, kLink, 1.0)
                     .covers_peak);
    EXPECT_TRUE(evaluate_swap_gap(kEvalSize, kEvalStart, gap_end,
                                  in_start - 1, kLink, 1.0)
                    .covers_peak);
}

TEST(GapEvaluation, OverlappingLegsCreditNoPeak)
{
    // A gap shorter than the round trip: the swap-in must start
    // before the swap-out completes, so no instant is off-device.
    const TimeNs needed = analysis::min_interval_for(kEvalSize, kLink);
    const TimeNs gap_end = kEvalStart + needed / 2;
    for (TimeNs peak = kEvalStart; peak <= gap_end; peak += needed / 16)
        EXPECT_FALSE(evaluate_swap_gap(kEvalSize, kEvalStart, gap_end,
                                       peak, kLink, 1.0)
                         .covers_peak)
            << peak;
}

TEST(GapEvaluation, HideVerdictAndStallFollowEq1)
{
    const TimeNs needed = analysis::min_interval_for(kEvalSize, kLink);
    const auto at = [&](TimeNs gap, double factor) {
        return evaluate_swap_gap(kEvalSize, kEvalStart, kEvalStart + gap,
                                 kEvalStart, kLink, factor);
    };
    // Exactly the round trip hides at the paper's bound.
    const GapEvaluation exact = at(needed, 1.0);
    EXPECT_TRUE(exact.hideable);
    EXPECT_DOUBLE_EQ(exact.hide_ratio, 1.0);
    EXPECT_EQ(exact.overhead, 0u);
    // Short of it, the stall is the missing time.
    const GapEvaluation short_gap = at(needed - 1000, 1.0);
    EXPECT_FALSE(short_gap.hideable);
    EXPECT_EQ(short_gap.overhead, 1000u);
    // Between 1.0x and 1.5x the round trip at factor 1.5: the raw
    // round trip fits, so there is no stall, yet the headroom is
    // missed. The relief planner does not offer such a gap; the swap
    // planner takes it only with allow_overhead (next test).
    const GapEvaluation headroom = at(needed * 5 / 4, 1.5);
    EXPECT_FALSE(headroom.hideable);
    EXPECT_EQ(headroom.overhead, 0u);
    EXPECT_NEAR(headroom.hide_ratio, 1.25, 1e-6);
    EXPECT_TRUE(at(needed * 3 / 2, 1.5).hideable);
}

TEST(SwapPlanner, AllowOverheadTakesAHeadroomMissAtZeroOverhead)
{
    trace::TraceRecorder r;
    const TimeNs needed = analysis::min_interval_for(kEvalSize, kLink);
    r.record(ev(0, trace::EventKind::kMalloc, 1, kEvalSize));
    r.record(ev(kEvalStart, trace::EventKind::kWrite, 1, kEvalSize));
    r.record(ev(kEvalStart + needed * 5 / 4, trace::EventKind::kRead, 1,
                kEvalSize));

    PlannerOptions opts = default_options();
    opts.safety_factor = 1.5;
    EXPECT_TRUE(
        SwapPlanner(opts).plan(analysis::TraceView(r)).decisions.empty());
    opts.allow_overhead = true;
    const auto plan = SwapPlanner(opts).plan(analysis::TraceView(r));
    ASSERT_EQ(plan.decisions.size(), 1u);
    EXPECT_EQ(plan.decisions[0].overhead, 0u);
    EXPECT_NEAR(plan.decisions[0].hide_ratio, 1.25, 1e-6);
    EXPECT_EQ(totals_of(plan).overhead, 0u);
}

TEST(SwapPlanner, TotalsSumTheDecisions)
{
    // A hand-built plan of free and paid decisions: the totals are
    // the hand sums; an empty plan sums to zeros.
    SwapPlanReport plan;
    for (const auto &[size, overhead] :
         {std::pair<std::size_t, TimeNs>{10, 0}, {20, 7}, {40, 0},
          {80, 11}}) {
        SwapDecision d;
        d.size = size;
        d.overhead = overhead;
        plan.decisions.push_back(d);
    }
    EXPECT_EQ(totals_of(plan).bytes, 150u);
    EXPECT_EQ(totals_of(plan).overhead, 18u);
    EXPECT_EQ(totals_of(SwapPlanReport{}).bytes, 0u);
    EXPECT_EQ(totals_of(SwapPlanReport{}).overhead, 0u);
}

TEST(SwapPlanner, MultipleGapsYieldMultipleDecisions)
{
    trace::TraceRecorder r;
    const std::size_t size = 16ull * 1024 * 1024;
    r.record(ev(0, trace::EventKind::kMalloc, 1, size));
    r.record(ev(10, trace::EventKind::kWrite, 1, size));
    r.record(ev(kNsPerSec, trace::EventKind::kRead, 1, size));
    r.record(ev(2 * kNsPerSec, trace::EventKind::kRead, 1, size));
    const auto plan =
        SwapPlanner(default_options()).plan(analysis::TraceView(r));
    EXPECT_EQ(plan.decisions.size(), 2u);
    EXPECT_EQ(totals_of(plan).bytes, 2 * size);
    // Decisions come out sorted by gap start.
    EXPECT_LT(plan.decisions[0].gap_start,
              plan.decisions[1].gap_start);
}

TEST(SwapPlanner, GapsBeforeFirstAccessDoNotQualify)
{
    trace::TraceRecorder r;
    const std::size_t size = 100ull * 1024 * 1024;
    r.record(ev(0, trace::EventKind::kMalloc, 1, size));
    // One access only, a second after allocation: no internal gap.
    r.record(ev(kNsPerSec, trace::EventKind::kWrite, 1, size));
    EXPECT_TRUE(SwapPlanner(default_options())
                    .plan(analysis::TraceView(r))
                    .decisions.empty());
}

TEST(SwapPlanner, ValidatesOptions)
{
    PlannerOptions bad_link;
    EXPECT_THROW(SwapPlanner{bad_link}, Error);
    PlannerOptions bad_safety = default_options();
    bad_safety.safety_factor = 0.5;
    EXPECT_THROW(SwapPlanner{bad_safety}, Error);
}

}  // namespace
}  // namespace swap
}  // namespace pinpoint
