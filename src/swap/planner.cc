#include "swap/planner.h"

#include <utility>

#include "analysis/swap_model.h"
#include "analysis/timeline.h"
#include "core/check.h"
#include "core/types.h"

namespace pinpoint {
namespace swap {

GapEvaluation
evaluate_swap_gap(std::size_t size, TimeNs gap_start, TimeNs gap_end,
                  TimeNs peak_time, const analysis::LinkBandwidth &link,
                  double safety_factor, TimeNs latency_ns)
{
    const TimeNs out_time =
        latency_ns + analysis::transfer_ns(size, link.d2h_bps);
    const TimeNs in_time =
        latency_ns + analysis::transfer_ns(size, link.h2d_bps);
    const TimeNs needed = out_time + in_time;
    const TimeNs gap = gap_end - gap_start;
    GapEvaluation e;
    e.hide_ratio =
        static_cast<double>(gap) / static_cast<double>(needed);
    e.hideable = e.hide_ratio >= safety_factor;
    // A safety_factor > 1 can reject a gap that still fits the raw
    // round trip (needed <= gap); overhead must saturate at zero
    // there, not wrap the unsigned TimeNs.
    e.overhead = (e.hideable || needed <= gap) ? 0 : needed - gap;
    // The executor only evicts between swap-out completion and
    // swap-in start; a window the two legs overlap holds no instant.
    const TimeNs out_done = gap_start + out_time;
    const TimeNs in_start = gap_end > in_time ? gap_end - in_time : 0;
    e.covers_peak = out_done <= peak_time && peak_time < in_start;
    return e;
}

PlanTotals
totals_of(const SwapPlanReport &plan)
{
    PlanTotals t;
    for (const SwapDecision &d : plan.decisions)
        t = {t.bytes + d.size, t.overhead + d.overhead};
    return t;
}

SwapPlanner::SwapPlanner(PlannerOptions options)
    : options_(std::move(options))
{
    PP_CHECK(options_.link.d2h_bps > 0 && options_.link.h2d_bps > 0,
             "planner needs positive link bandwidths");
    PP_CHECK(options_.safety_factor >= 1.0,
             "safety_factor must be >= 1.0");
}

SwapPlanReport
SwapPlanner::plan(const analysis::TraceView &view) const
{
    const analysis::Timeline &timeline = view.timeline();
    SwapPlanReport report;

    const TimeNs peak_time = timeline.peak_time();

    for (const analysis::AccessGap &g :
         analysis::access_gaps(view, options_.min_block_bytes)) {
        const analysis::BlockLifetime &b = timeline.blocks()[g.slot];
        const GapEvaluation e = evaluate_swap_gap(
            b.size, g.start, g.end, peak_time, options_.link,
            options_.safety_factor);
        if (!e.hideable && !options_.allow_overhead)
            continue;
        SwapDecision d;
        d.block = b.block;
        d.slot = g.slot;
        d.tensor = b.tensor;
        d.size = b.size;
        d.gap_start = g.start;
        d.gap_end = g.end;
        d.hide_ratio = e.hide_ratio;
        d.overhead = e.overhead;
        if (e.covers_peak)
            report.peak_reduction_bytes += b.size;
        report.decisions.push_back(d);
    }
    return report;
}

}  // namespace swap
}  // namespace pinpoint
