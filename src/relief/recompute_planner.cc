#include "analysis/producers.h"
#include "analysis/timeline.h"
#include "core/types.h"
#include "relief/recompute_planner.h"

#include <algorithm>

namespace pinpoint {
namespace relief {

RecomputePlanner::RecomputePlanner(RecomputeOptions options)
    : options_(options)
{
}

RecomputePlanReport
RecomputePlanner::plan(const analysis::TraceView &view) const
{
    const analysis::Timeline &timeline = view.timeline();
    const analysis::ProducerIndex &producers = view.producers();
    RecomputePlanReport report;

    const TimeNs peak_time = timeline.peak_time();
    report.original_peak_bytes = timeline.peak_bytes();

    for (const auto &b : timeline.blocks()) {
        if (b.size < options_.min_block_bytes)
            continue;
        const auto prod = producers.find(b.block);
        if (prod == producers.end())
            continue;
        // Same gap walk as the swap planner: only gaps between two
        // accesses qualify (before the first access there is nothing
        // to preserve, after the last the block is about to die).
        for (std::size_t i = 1; i < b.accesses.size(); ++i) {
            const TimeNs gap_start = b.accesses[i - 1];
            const TimeNs gap_end = b.accesses[i];
            if (gap_end <= gap_start)
                continue;
            const TimeNs cost = prod->second.forward_ns;
            // The re-run must fit inside the gap: its output buffer
            // is live again while the producer replays, so a cost
            // that fills (or exceeds) the gap frees nothing.
            if (cost >= gap_end - gap_start)
                continue;
            RecomputeDecision d;
            d.block = b.block;
            d.tensor = b.tensor;
            d.size = b.size;
            d.gap_start = gap_start;
            d.gap_end = gap_end;
            d.gap = gap_end - gap_start;
            d.producer = prod->second.op;
            d.recompute_cost = cost;
            report.predicted_overhead += cost;
            report.total_recomputed_bytes += b.size;
            // Dropped at gap_start, re-materialized while the
            // producer replays over the last cost ns of the gap:
            // absent only in [gap_start, gap_end - cost) — the
            // compute-adjusted analogue of the swap executor's
            // transfer-adjusted residency window.
            if (gap_start <= peak_time &&
                peak_time < gap_end - cost)
                report.peak_reduction_bytes += b.size;
            report.decisions.push_back(std::move(d));
        }
    }

    std::sort(report.decisions.begin(), report.decisions.end(),
              [](const RecomputeDecision &a, const RecomputeDecision &b) {
                  if (a.gap_start != b.gap_start)
                      return a.gap_start < b.gap_start;
                  return a.block < b.block;
              });
    return report;
}

}  // namespace relief
}  // namespace pinpoint
