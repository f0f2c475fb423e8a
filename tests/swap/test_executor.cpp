/** @file Unit tests for the swap executor. */
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "core/check.h"
#include "nn/models.h"
#include "runtime/session.h"
#include "support/occupancy_oracle.h"
#include "swap/executor.h"
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

/** Big block with a 1 s gap, plus a transient block mid-gap. */
trace::TraceRecorder
gap_trace(std::size_t big = 512ull << 20)
{
    trace::TraceRecorder r;
    r.record(ev(0, trace::EventKind::kMalloc, 1, big));
    r.record(ev(10, trace::EventKind::kWrite, 1, big));
    r.record(ev(400 * kNsPerMs, trace::EventKind::kMalloc, 2,
                64ull << 20));
    r.record(ev(500 * kNsPerMs, trace::EventKind::kFree, 2,
                64ull << 20));
    r.record(ev(kNsPerSec, trace::EventKind::kRead, 1, big));
    r.record(ev(kNsPerSec + 10, trace::EventKind::kFree, 1, big));
    return r;
}

TEST(SwapExecutor, HideableSwapReducesPeakWithNoStall)
{
    const analysis::TraceView trace(gap_trace());
    PlannerOptions opts;
    opts.link = kLink;
    const auto plan = SwapPlanner(opts).plan(trace);
    ASSERT_EQ(plan.decisions.size(), 1u);

    const auto exec = execute_plan(trace, plan, kLink);
    EXPECT_EQ(exec.swaps.size(), 1u);
    EXPECT_EQ(exec.measured_stall, 0u);
    const std::size_t original_peak = trace.timeline().peak_bytes();
    EXPECT_EQ(original_peak, (512ull + 64ull) << 20);
    // At the old peak instant the big block is off-device.
    EXPECT_EQ(exec.new_peak_bytes, 512ull << 20)
        << "peak moves to the big block's resident phase";
    EXPECT_EQ(peak_saving(original_peak, exec.new_peak_bytes),
              64ull << 20);
    // The one leg moves its bytes out and back in.
    EXPECT_EQ(totals_of(plan).bytes, 512ull << 20);
    EXPECT_GT(exec.d2h_busy_time + exec.h2d_busy_time, 100 * kNsPerMs);
}

TEST(SwapExecutor, ExecutorConfirmsPlannerPeakPrediction)
{
    const analysis::TraceView trace(gap_trace());
    PlannerOptions opts;
    opts.link = kLink;
    const auto plan = SwapPlanner(opts).plan(trace);
    const auto exec = execute_plan(trace, plan, kLink);
    // The planner predicted reduction at the original peak instant;
    // the executor's measured reduction must be at least that once
    // transfer edges are accounted for.
    const std::size_t original_peak = trace.timeline().peak_bytes();
    EXPECT_GE(peak_saving(original_peak, exec.new_peak_bytes), 0u);
    EXPECT_LE(exec.new_peak_bytes, original_peak);
}

TEST(SwapExecutor, NonHideableSwapMeasuresStall)
{
    // 512 MB with only a 100 ms gap: round trip needs ~170 ms.
    trace::TraceRecorder r;
    const std::size_t big = 512ull << 20;
    r.record(ev(0, trace::EventKind::kMalloc, 1, big));
    r.record(ev(10, trace::EventKind::kWrite, 1, big));
    r.record(ev(100 * kNsPerMs, trace::EventKind::kRead, 1, big));

    PlannerOptions opts;
    opts.link = kLink;
    opts.allow_overhead = true;
    const analysis::TraceView view(r);
    const auto plan = SwapPlanner(opts).plan(view);
    ASSERT_EQ(plan.decisions.size(), 1u);
    const auto exec = execute_plan(view, plan, kLink);
    EXPECT_GT(exec.measured_stall, 0u);
    // Executor and planner agree on the stall to the nanosecond.
    EXPECT_EQ(exec.measured_stall, totals_of(plan).overhead);
}

TEST(SwapExecutor, ExactlyHideableGapHasNoSpuriousStall)
{
    // An odd size forces fractional per-leg transfer times. The gap
    // equals min_interval_for exactly; with the planner and the
    // executor on one per-leg rounding helper this is stall-free —
    // the seed ceiled the summed round trip in the planner but each
    // leg separately in the executor, reporting a spurious 1 ns
    // stall on gaps like this one.
    trace::TraceRecorder r;
    const std::size_t size = 333333333;
    const TimeNs needed = analysis::min_interval_for(size, kLink);
    r.record(ev(0, trace::EventKind::kMalloc, 1, size));
    r.record(ev(10, trace::EventKind::kWrite, 1, size));
    r.record(ev(10 + needed, trace::EventKind::kRead, 1, size));

    PlannerOptions opts;
    opts.link = kLink;
    const analysis::TraceView view(r);
    const auto plan = SwapPlanner(opts).plan(view);
    ASSERT_EQ(plan.decisions.size(), 1u);
    EXPECT_EQ(plan.decisions[0].overhead, 0u);
    const auto exec = execute_plan(view, plan, kLink);
    EXPECT_EQ(exec.measured_stall, 0u)
        << "planner and executor disagree on rounding";
}

TEST(SwapExecutor, ContendedSwapsStallOnTheSharedLink)
{
    // Two 512 MB blocks share one 200 ms gap. Each round trip needs
    // ~161 ms — hideable in isolation — but the two D2H copies
    // serialize on the shared link (~80 ms each) and so do the two
    // H2D copies (~81 ms each), so the second swap-in cannot finish
    // by the gap end. The seed's dedicated-link executor reported
    // zero stall here.
    trace::TraceRecorder r;
    const std::size_t big = 512ull << 20;
    const TimeNs gap_end = 200 * kNsPerMs;
    r.record(ev(0, trace::EventKind::kMalloc, 1, big));
    r.record(ev(0, trace::EventKind::kMalloc, 2, big));
    r.record(ev(10, trace::EventKind::kWrite, 1, big));
    r.record(ev(10, trace::EventKind::kWrite, 2, big));
    r.record(ev(gap_end, trace::EventKind::kRead, 1, big));
    r.record(ev(gap_end, trace::EventKind::kRead, 2, big));
    r.record(ev(gap_end + 10, trace::EventKind::kFree, 1, big));
    r.record(ev(gap_end + 10, trace::EventKind::kFree, 2, big));

    PlannerOptions opts;
    opts.link = kLink;
    const analysis::TraceView view(r);
    const auto plan = SwapPlanner(opts).plan(view);
    ASSERT_EQ(plan.decisions.size(), 2u);
    EXPECT_EQ(totals_of(plan).overhead, 0u)
        << "each swap is hideable in isolation";

    // Alone, either decision is stall-free.
    for (const auto &d : plan.decisions) {
        SwapPlanReport solo;
        solo.decisions.push_back(d);
        EXPECT_EQ(execute_plan(view, solo, kLink).measured_stall, 0u);
    }

    // Together they contend, and the slip is measured.
    const auto exec = execute_plan(view, plan, kLink);
    EXPECT_GT(exec.measured_stall, 0u)
        << "the shared link must surface contention stall";
    EXPECT_GT(exec.queue_delay, 0u);
    ASSERT_EQ(exec.swaps.size(), 2u);
    // FIFO: the first-queued swap hides; the second pays the slip.
    EXPECT_EQ(exec.swaps[0].stall, 0u);
    EXPECT_GT(exec.swaps[1].stall, 0u);
    // The second swap-out starts only when the first leaves the
    // D2H channel — scheduled, not ideal, edges.
    EXPECT_EQ(exec.swaps[1].out_start, exec.swaps[0].out_end);
    EXPECT_EQ(exec.swaps[1].in_start, exec.swaps[0].in_end);
}

TEST(SwapExecutor, SharedSchedulerAccumulatesAcrossPlans)
{
    const analysis::TraceView trace(gap_trace());
    PlannerOptions opts;
    opts.link = kLink;
    const auto plan = SwapPlanner(opts).plan(trace);
    ASSERT_EQ(plan.decisions.size(), 1u);

    sim::LinkScheduler link(kLink.d2h_bps, kLink.h2d_bps);
    const auto first = execute_plan(trace, plan, link);
    EXPECT_EQ(first.measured_stall, 0u);
    // A second plan over the same window now queues behind the
    // first plan's traffic on the very same link.
    const auto second = execute_plan(trace, plan, link);
    EXPECT_GT(second.measured_stall, first.measured_stall);
    EXPECT_EQ(second.swaps.size(), 1u);
    EXPECT_EQ(link.busy_time(sim::CopyDir::kDeviceToHost),
              first.d2h_busy_time + second.d2h_busy_time);
}

TEST(SwapExecutor, PeakSavingSaturatesAtZero)
{
    // What a plan saved is original - new, and 0 when the plan did
    // not lower the peak (link timing can raise a second ridge).
    EXPECT_EQ(peak_saving(100, 40), 60u);
    EXPECT_EQ(peak_saving(100, 100), 0u);
    EXPECT_EQ(peak_saving(100, 150), 0u);
    EXPECT_EQ(peak_saving(0, 1), 0u);
}

TEST(SwapExecutor, EmptyPlanChangesNothing)
{
    const analysis::TraceView trace(gap_trace());
    SwapPlanReport empty;
    const auto exec = execute_plan(trace, empty, kLink);
    EXPECT_EQ(exec.swaps.size(), 0u);
    EXPECT_EQ(exec.new_peak_bytes, trace.timeline().peak_bytes());
    EXPECT_EQ(peak_saving(trace.timeline().peak_bytes(),
                          exec.new_peak_bytes),
              0u);
    EXPECT_EQ(exec.d2h_busy_time + exec.h2d_busy_time, 0u);
}

/** Expects executing @p d alone to throw an Error naming @p what. */
void
expect_rejected(const analysis::TraceView &view, const SwapDecision &d,
                const std::string &what)
{
    SwapPlanReport plan;
    plan.decisions.push_back(d);
    try {
        execute_plan(view, plan, kLink);
        ADD_FAILURE() << "accepted a decision that " << what;
    } catch (const Error &e) {
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
            << e.what();
    }
}

TEST(SwapExecutor, ChecksEachDecisionThroughItsSlot)
{
    const analysis::TraceView view(gap_trace());
    PlannerOptions opts;
    opts.link = kLink;
    const auto plan = SwapPlanner(opts).plan(view);
    ASSERT_EQ(plan.decisions.size(), 1u);
    const SwapDecision good = plan.decisions[0];
    // Block 1 is slot 0; the transient block 2 is slot 1.
    ASSERT_EQ(good.slot, 0u);

    SwapDecision d = good;
    d.slot = view.timeline().blocks().size();
    expect_rejected(view, d, "names slot 2 of 2");
    d.slot = kNoSlot;
    expect_rejected(view, d, "of 2");

    d = good;
    d.slot = 1;
    expect_rejected(view, d, "which holds block 2");

    d = good;
    d.gap_end = kNsPerSec + 20;  // past block 1's free
    expect_rejected(view, d, "escapes block 1's lifetime");

    d = good;
    d.gap_start = 11;  // inside the lifetime, not an access
    expect_rejected(view, d, "not accesses of block 1");
    d = good;
    d.gap_end = kNsPerSec - 1;
    expect_rejected(view, d, "not accesses of block 1");
}

TEST(SwapExecutor, ReusedBlockIdExecutesThroughItsSlots)
{
    // Block id 7 lives twice, each lifetime with a 1 s gap; the
    // second allocation reuses the id at the first one's free.
    trace::TraceRecorder r;
    const std::size_t big = 512ull << 20;
    for (TimeNs base : {TimeNs{0}, 2 * kNsPerSec}) {
        r.record(ev(base, trace::EventKind::kMalloc, 7, big));
        r.record(ev(base + 10, trace::EventKind::kWrite, 7, big));
        r.record(ev(base + kNsPerSec, trace::EventKind::kRead, 7, big));
        r.record(ev(base + 2 * kNsPerSec, trace::EventKind::kFree, 7,
                    big));
    }
    const analysis::TraceView view(r);
    PlannerOptions opts;
    opts.link = kLink;
    const auto plan = SwapPlanner(opts).plan(view);
    ASSERT_EQ(plan.decisions.size(), 2u);
    EXPECT_EQ(plan.decisions[0].block, 7u);
    EXPECT_EQ(plan.decisions[1].block, 7u);
    EXPECT_EQ(plan.decisions[0].slot, 0u);
    EXPECT_EQ(plan.decisions[1].slot, 1u);

    const auto exec = execute_plan(view, plan, kLink);
    EXPECT_EQ(exec.swaps.size(), 2u);
    EXPECT_EQ(exec.measured_stall, 0u);
    EXPECT_EQ(exec.new_peak_bytes, big)
        << "each lifetime is still resident at its accesses";

    // The same id in the other lifetime's slot is a foreign gap.
    SwapDecision swapped = plan.decisions[1];
    swapped.slot = 0;
    expect_rejected(view, swapped, "escapes block 7's lifetime");
}

TEST(SwapExecutor, ShuffledPlanGetsTheSortedSchedule)
{
    runtime::SessionConfig config;
    config.batch = 16;
    config.iterations = 2;
    const auto result = runtime::run_training(nn::resnet(18), config);
    PlannerOptions opts;
    opts.link = kLink;
    opts.allow_overhead = true;
    const auto plan = SwapPlanner(opts).plan(result.view());
    ASSERT_GT(plan.decisions.size(), 10u);
    const auto sorted = execute_plan(result.view(), plan, kLink);

    SwapPlanReport shuffled = plan;
    std::vector<std::size_t> from(plan.decisions.size());
    std::iota(from.begin(), from.end(), std::size_t{0});
    std::shuffle(from.begin(), from.end(), std::mt19937_64(20));
    for (std::size_t i = 0; i < from.size(); ++i)
        shuffled.decisions[i] = plan.decisions[from[i]];
    const auto exec = execute_plan(result.view(), shuffled, kLink);

    EXPECT_EQ(exec.new_peak_bytes, sorted.new_peak_bytes);
    EXPECT_EQ(exec.measured_stall, sorted.measured_stall);
    EXPECT_EQ(exec.queue_delay, sorted.queue_delay);
    EXPECT_EQ(exec.link_busy_fraction, sorted.link_busy_fraction);
    ASSERT_EQ(exec.swaps.size(), sorted.swaps.size());
    for (std::size_t i = 0; i < from.size(); ++i) {
        SCOPED_TRACE(i);
        const ExecutedSwap &a = exec.swaps[i];
        const ExecutedSwap &b = sorted.swaps[from[i]];
        EXPECT_EQ(a.out_start, b.out_start);
        EXPECT_EQ(a.out_end, b.out_end);
        EXPECT_EQ(a.in_start, b.in_start);
        EXPECT_EQ(a.in_end, b.in_end);
        EXPECT_EQ(a.stall, b.stall);
        EXPECT_EQ(a.queue_delay, b.queue_delay);
    }
}

/**
 * A seeded random trace of MiB-sized blocks, each read a few times
 * at random instants between its malloc and its free: many
 * overlapping gaps, so a slow link saturates.
 */
trace::TraceRecorder
random_gap_trace(std::mt19937_64 &rng)
{
    struct Event {
        TimeNs t;
        std::size_t seq;
        trace::MemoryEvent e;
    };
    std::vector<Event> events;
    for (BlockId b = 1; b <= 24; ++b) {
        const std::size_t size = (1 + rng() % 8) << 20;
        std::vector<TimeNs> times(2 + rng() % 5);
        for (TimeNs &t : times)
            t = (rng() % 400) * kNsPerMs / 4;
        std::sort(times.begin(), times.end());
        const TimeNs alloc = times.front() / 2;
        events.push_back({alloc, events.size(),
                          ev(alloc, trace::EventKind::kMalloc, b, size)});
        for (TimeNs t : times)
            events.push_back(
                {t + 1, events.size(),
                 ev(t + 1, trace::EventKind::kRead, b, size)});
        events.push_back(
            {times.back() + 2, events.size(),
             ev(times.back() + 2, trace::EventKind::kFree, b, size)});
    }
    std::sort(events.begin(), events.end(),
              [](const Event &a, const Event &b) {
                  return a.t != b.t ? a.t < b.t : a.seq < b.seq;
              });
    trace::TraceRecorder r;
    for (const Event &e : events)
        r.record(e.e);
    return r;
}

TEST(SwapExecutor, ResidencyEdgesAreASwapOutRunThenASwapInRun)
{
    // Swap-outs drain fast, so each swap-in is ready near its ideal
    // start, out of gap-start order; at about 10 ms per MiB, the
    // swap-ins then queue on the host-to-device channel.
    const analysis::LinkBandwidth slow{1e10, 1e8};
    std::size_t reordered = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE(seed);
        std::mt19937_64 rng(seed);
        const trace::TraceRecorder r = random_gap_trace(rng);
        const analysis::TraceView view(r);
        PlannerOptions opts;
        opts.link = slow;
        opts.min_block_bytes = 0;
        opts.allow_overhead = true;
        const SwapPlanReport all = SwapPlanner(opts).plan(view);
        // A random subset keeps the planner's (gap_start, block) order.
        SwapPlanReport plan;
        for (const SwapDecision &d : all.decisions)
            if (rng() % 3 != 0)
                plan.decisions.push_back(d);
        ASSERT_GT(plan.decisions.size(), 10u);

        const SwapExecutionResult exec = execute_plan(view, plan, slow);
        EXPECT_GT(exec.queue_delay, 0u) << "the link must saturate";
        ASSERT_EQ(exec.h2d_order.size(), exec.swaps.size());
        if (!std::is_sorted(exec.h2d_order.begin(), exec.h2d_order.end()))
            ++reordered;

        std::vector<const SwapDecision *> legs;
        for (const SwapDecision &d : plan.decisions)
            legs.push_back(&d);
        std::vector<analysis::OccupancyEdge> edges;
        append_residency_edges(exec, legs, edges);
        const std::size_t windows = static_cast<std::size_t>(
            std::count_if(exec.swaps.begin(), exec.swaps.end(),
                          [](const ExecutedSwap &s) {
                              return s.in_start > s.out_end;
                          }));
        ASSERT_EQ(edges.size(), 2 * windows);
        ASSERT_GT(windows, 0u);
        for (std::size_t i = 0; i < edges.size(); ++i) {
            SCOPED_TRACE(i);
            EXPECT_EQ(edges[i].delta < 0, i < windows);
            if (i != 0 && i != windows) {
                EXPECT_FALSE(
                    analysis::edge_before(edges[i], edges[i - 1]));
            }
        }

        std::vector<analysis::OccupancyEdge> all_edges =
            test_support::sorted_edges_oracle(r);
        all_edges.insert(all_edges.end(), edges.begin(), edges.end());
        EXPECT_EQ(exec.new_peak_bytes,
                  test_support::peak_occupancy(std::move(all_edges)));
    }
    // The saturated link reorders the swap-ins in more than half the
    // plans, so the H2D run is not the decision order.
    EXPECT_GT(reordered, 10u);
}

/**
 * What the swap command prints about a schedule comes from the legs
 * and the link: bytes moved are the plan's total each way, busy time
 * is the two channels' sum, and each residency edge carries its
 * leg's size. Checked on a link that already carries another plan's
 * traffic, which the second schedule must not count.
 */
TEST(SwapExecutor, ScheduleTotalsComeFromTheLegsAndTheLink)
{
    const analysis::LinkBandwidth slow{1e10, 1e8};
    std::mt19937_64 rng(7);
    const trace::TraceRecorder r = random_gap_trace(rng);
    const analysis::TraceView view(r);
    PlannerOptions opts;
    opts.link = slow;
    opts.min_block_bytes = 0;
    opts.allow_overhead = true;
    const SwapPlanReport plan = SwapPlanner(opts).plan(view);
    ASSERT_GT(plan.decisions.size(), 10u);

    sim::LinkScheduler link(slow.d2h_bps, slow.h2d_bps);
    const SwapExecutionResult first = execute_plan(view, plan, link);
    const SwapExecutionResult exec = execute_plan(view, plan, link);
    ASSERT_EQ(exec.swaps.size(), plan.decisions.size());
    EXPECT_GT(exec.queue_delay, first.queue_delay)
        << "the second plan must queue behind the first";

    TimeNs busy = 0;
    std::size_t bytes = 0;
    std::vector<analysis::OccupancyEdge> expected =
        test_support::sorted_edges_oracle(r);
    for (std::size_t i = 0; i < exec.swaps.size(); ++i) {
        const ExecutedSwap &s = exec.swaps[i];
        const auto size =
            static_cast<std::int64_t>(plan.decisions[i].size);
        busy += (s.out_end - s.out_start) + (s.in_end - s.in_start);
        bytes += plan.decisions[i].size;
        if (s.in_start > s.out_end) {
            expected.push_back({s.out_end, -size});
            expected.push_back({s.in_start, size});
        }
    }
    EXPECT_EQ(exec.d2h_busy_time + exec.h2d_busy_time, busy);
    EXPECT_EQ(link.busy_time(sim::CopyDir::kDeviceToHost) +
                  link.busy_time(sim::CopyDir::kHostToDevice),
              first.d2h_busy_time + first.h2d_busy_time + busy);
    EXPECT_EQ(totals_of(plan).bytes, bytes);

    std::vector<const SwapDecision *> legs;
    for (const SwapDecision &d : plan.decisions)
        legs.push_back(&d);
    std::vector<analysis::OccupancyEdge> edges =
        test_support::sorted_edges_oracle(r);
    append_residency_edges(exec, legs, edges);
    expected = test_support::sorted_edges(std::move(expected));
    edges = test_support::sorted_edges(std::move(edges));
    ASSERT_EQ(edges.size(), expected.size());
    for (std::size_t i = 0; i < edges.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(edges[i].t, expected[i].t);
        EXPECT_EQ(edges[i].delta, expected[i].delta);
    }
    EXPECT_EQ(exec.new_peak_bytes,
              test_support::peak_occupancy(std::move(expected)));
}

TEST(SwapExecutor, EndToEndOnRealTrainingTrace)
{
    runtime::SessionConfig config;
    config.batch = 16;
    config.iterations = 3;
    const auto result = runtime::run_training(nn::resnet(18), config);

    PlannerOptions opts;
    opts.link = kLink;
    const auto plan = SwapPlanner(opts).plan(result.view());
    const auto exec = execute_plan(result.view(), plan, kLink);
    EXPECT_EQ(exec.swaps.size(), plan.decisions.size());
    // A hideable-only plan can still stall on a real trace: the
    // decisions overlap and contend for the one link. What must
    // hold is that every stall is link slip, never more than the
    // time spent queued.
    const std::size_t original_peak = result.view().timeline().peak_bytes();
    EXPECT_GE(exec.measured_stall, totals_of(plan).overhead);
    EXPECT_LE(exec.measured_stall, exec.queue_delay);
    EXPECT_LE(exec.new_peak_bytes, original_peak);
    EXPECT_GE(exec.link_busy_fraction, 0.0);
    EXPECT_LE(exec.link_busy_fraction, 1.0);
    if (!plan.decisions.empty()) {
        EXPECT_GT(peak_saving(original_peak, exec.new_peak_bytes), 0u);
    }
}

}  // namespace
}  // namespace swap
}  // namespace pinpoint
