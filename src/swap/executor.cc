#include "swap/executor.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <tuple>
#include <vector>

#include "analysis/swap_model.h"
#include "analysis/timeline.h"
#include "analysis/trace_view.h"
#include "core/check.h"
#include "core/sorted_runs.h"
#include "core/types.h"
#include "sim/link_scheduler.h"
#include "sim/pcie.h"
#include "swap/planner.h"

namespace pinpoint {
namespace swap {
namespace {

/**
 * Checks @p d against the lifetime in its Timeline slot: no lookup
 * by id, so a trace that reuses an id after its free is checked
 * against the lifetime its planner found the gap in.
 */
void
check_decision(const analysis::Timeline &timeline, const SwapDecision &d)
{
    const std::vector<analysis::BlockLifetime> &blocks =
        timeline.blocks();
    PP_CHECK(d.slot < blocks.size(),
             "decision for block " << d.block << " names slot "
                                   << d.slot << " of "
                                   << blocks.size());
    const analysis::BlockLifetime &b = blocks[d.slot];
    PP_CHECK(b.block == d.block,
             "decision for block " << d.block << " names slot "
                                   << d.slot << ", which holds block "
                                   << b.block);
    PP_CHECK(d.gap_start >= b.alloc_time &&
                 (!b.freed || d.gap_end <= b.free_time),
             "decision gap escapes block " << d.block
                                           << "'s lifetime");
    const analysis::AccessList accesses = timeline.accesses(b);
    PP_CHECK(std::binary_search(accesses.begin(), accesses.end(),
                                d.gap_start) &&
                 std::binary_search(accesses.begin(), accesses.end(),
                                    d.gap_end),
             "decision gap endpoints are not accesses of block "
                 << d.block);
}

}  // namespace

LinkSchedule
schedule_plan(const analysis::TraceView &view,
              const std::vector<const SwapDecision *> &legs,
              sim::LinkScheduler &scheduler)
{
    const analysis::Timeline &timeline = view.timeline();
    for (const SwapDecision *d : legs)
        check_decision(timeline, *d);

    LinkSchedule result;
    // The scheduler may carry earlier plans' traffic; snapshot the
    // channel busy times so this result reports only its own.
    const TimeNs d2h_busy_before =
        scheduler.busy_time(sim::CopyDir::kDeviceToHost);
    const TimeNs h2d_busy_before =
        scheduler.busy_time(sim::CopyDir::kHostToDevice);

    const std::size_t n = legs.size();
    result.swaps.resize(n);

    // Phase 1 — swap-outs. The D2H channel serializes them; queue
    // order is gap-start order (ties by block id for determinism),
    // the order both planners already emit, so the legs are only
    // sorted when a hand-made plan is not.
    const auto out_before = [](const SwapDecision *a,
                               const SwapDecision *b) {
        if (a->gap_start != b->gap_start)
            return a->gap_start < b->gap_start;
        return a->block < b->block;
    };
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    if (!std::is_sorted(legs.begin(), legs.end(), out_before))
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      return out_before(legs[a], legs[b]);
                  });
    for (std::size_t i : order) {
        const SwapDecision &d = *legs[i];
        const auto out = scheduler.submit(
            sim::CopyDir::kDeviceToHost, d.size, d.gap_start);
        auto &s = result.swaps[i];
        s.out_start = out.start_time;
        s.out_end = out.end_time;
        s.queue_delay += out.queue_delay();
    }

    // Phase 2 — swap-ins. Each is ready at its *ideal* start
    // (gap_end - transfer time, so an uncontended swap-in finishes
    // exactly at gap_end) but never before its own swap-out is off
    // the device. The H2D channel serializes in (ready, block,
    // gap_start) order, sorted as packed records; a swap-in queued
    // behind earlier traffic ends past gap_end and the slip is the
    // measured stall.
    struct Queued {
        TimeNs ready;
        BlockId block;
        TimeNs gap_start;
        std::size_t index;

        bool operator<(const Queued &o) const
        {
            return std::tie(ready, block, gap_start, index) <
                   std::tie(o.ready, o.block, o.gap_start, o.index);
        }
    };
    const double h2d_bps =
        scheduler.bandwidth_bps(sim::CopyDir::kHostToDevice);
    std::vector<Queued> queue(n);
    for (std::size_t i = 0; i < n; ++i) {
        const SwapDecision &d = *legs[i];
        // Charge the link's per-transfer setup latency (0 on host
        // links) so a hideable swap-in on a latency-bearing peer
        // link still lands exactly at gap_end when uncontended.
        const TimeNs in_time = scheduler.latency_ns() +
                               analysis::transfer_ns(d.size, h2d_bps);
        const TimeNs ideal =
            d.gap_end > in_time ? d.gap_end - in_time : 0;
        queue[i] = {std::max(ideal, result.swaps[i].out_end), d.block,
                    d.gap_start, i};
    }
    // Where the D2H channel is the bottleneck, ready is mostly the
    // swap-out completion, which rises along the D2H order: the
    // queue then comes in a few sorted runs, merged in O(n log r).
    merge_sorted_runs(queue, std::less<Queued>());
    result.h2d_order.reserve(n);
    for (const Queued &q : queue) {
        const SwapDecision &d = *legs[q.index];
        const auto in = scheduler.submit(
            sim::CopyDir::kHostToDevice, d.size, q.ready);
        auto &s = result.swaps[q.index];
        s.in_start = in.start_time;
        s.in_end = in.end_time;
        s.queue_delay += in.queue_delay();
        if (in.end_time > d.gap_end)
            s.stall = in.end_time - d.gap_end;
        result.h2d_order.push_back(q.index);
        result.measured_stall += s.stall;
        result.queue_delay += s.queue_delay;
    }

    result.d2h_busy_time =
        scheduler.busy_time(sim::CopyDir::kDeviceToHost) -
        d2h_busy_before;
    result.h2d_busy_time =
        scheduler.busy_time(sim::CopyDir::kHostToDevice) -
        h2d_busy_before;
    const TimeNs span = std::max(
        {timeline.end(),
         scheduler.busy_until(sim::CopyDir::kDeviceToHost),
         scheduler.busy_until(sim::CopyDir::kHostToDevice)});
    result.link_busy_fraction =
        span == 0 ? 0.0
                  : static_cast<double>(result.d2h_busy_time +
                                        result.h2d_busy_time) /
                        (2.0 * static_cast<double>(span));
    return result;
}

void
append_residency_edges(const LinkSchedule &schedule,
                       const std::vector<const SwapDecision *> &legs,
                       std::vector<analysis::OccupancyEdge> &edges)
{
    PP_ASSERT(legs.size() == schedule.swaps.size(),
              "schedule of " << schedule.swaps.size()
                             << " swaps read with " << legs.size()
                             << " legs");
    // Scheduled, not ideal, edges: contention shrinks the
    // off-device window, and a window it closes adds none. Two
    // runs: the swap-outs complete in D2H queue order (the legs'
    // order whenever it is gap-start order), the swap-ins start in
    // H2D queue order.
    for (std::size_t i = 0; i < legs.size(); ++i) {
        const ExecutedSwap &s = schedule.swaps[i];
        if (s.in_start > s.out_end)
            edges.push_back(
                {s.out_end, -static_cast<std::int64_t>(legs[i]->size)});
    }
    for (std::size_t i : schedule.h2d_order) {
        const ExecutedSwap &s = schedule.swaps[i];
        if (s.in_start > s.out_end)
            edges.push_back(
                {s.in_start, static_cast<std::int64_t>(legs[i]->size)});
    }
}

SwapExecutionResult
execute_plan(const analysis::TraceView &view,
             const SwapPlanReport &plan,
             sim::LinkScheduler &scheduler)
{
    std::vector<const SwapDecision *> legs;
    legs.reserve(plan.decisions.size());
    for (const SwapDecision &d : plan.decisions)
        legs.push_back(&d);
    SwapExecutionResult result;
    static_cast<LinkSchedule &>(result) =
        schedule_plan(view, legs, scheduler);
    // The plan's residency edges; the baseline stays in the shared
    // index and Timeline::peak_with merges the two.
    std::vector<analysis::OccupancyEdge> edges;
    edges.reserve(result.swaps.size() * 2);
    append_residency_edges(result, legs, edges);
    result.new_peak_bytes = view.timeline().peak_with(std::move(edges));
    return result;
}

SwapExecutionResult
execute_plan(const analysis::TraceView &view,
             const SwapPlanReport &plan,
             const analysis::LinkBandwidth &link)
{
    sim::LinkScheduler scheduler(link.d2h_bps, link.h2d_bps);
    return execute_plan(view, plan, scheduler);
}

}  // namespace swap
}  // namespace pinpoint
