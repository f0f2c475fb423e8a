/**
 * @file
 * Swap executor: replays a recorded trace with a swap plan applied
 * and measures what actually happens — residency-adjusted peak
 * occupancy, busy time on the PCIe link, and the stalls
 * non-hideable or link-contended swaps add. Used to validate the
 * planner's predictions inside the simulation instead of trusting
 * the cost model twice.
 *
 * All transfers share one full-duplex link (sim::LinkScheduler):
 * overlapping swap-outs serialize against each other, overlapping
 * swap-ins likewise, and a swap-in queued behind earlier traffic
 * starts late — that slip is measured as stall, which the paper's
 * per-decision Eq. 1 bound cannot see.
 */
#pragma once

#include <cstddef>
#include <vector>

#include "analysis/swap_model.h"
#include "analysis/timeline.h"
#include "core/types.h"
#include "sim/link_scheduler.h"
#include "swap/planner.h"

namespace pinpoint {
namespace swap {

/** Link times of one leg (aligned with the legs, which hold its size). */
struct ExecutedSwap {
    /** Scheduled device-to-host copy. */
    TimeNs out_start = 0;
    TimeNs out_end = 0;
    /** Scheduled host-to-device copy. */
    TimeNs in_start = 0;
    TimeNs in_end = 0;
    /** Time the swap-in finishes past gap_end (0 when hidden). */
    TimeNs stall = 0;
    /** Total time this decision waited for the shared link. */
    TimeNs queue_delay = 0;
};

/**
 * Link schedule of a swap plan: every copy timed, no peak. Each leg
 * crosses once each way: the bytes moved either way are the legs'
 * total size, and the busy time is d2h_busy_time + h2d_busy_time.
 */
struct LinkSchedule {
    /** Busy time this plan added to the device-to-host channel. */
    TimeNs d2h_busy_time = 0;
    /** Busy time this plan added to the host-to-device channel. */
    TimeNs h2d_busy_time = 0;
    /**
     * Mean per-direction occupancy of the shared link over the
     * trace span (1.0 = both directions saturated end to end).
     */
    double link_busy_fraction = 0.0;
    /** Stall time where a swap-in could not finish by its gap end. */
    TimeNs measured_stall = 0;
    /** Total time decisions spent queued behind other transfers. */
    TimeNs queue_delay = 0;
    /** Per-decision schedule, aligned with the scheduled legs. */
    std::vector<ExecutedSwap> swaps;
    /**
     * Indices into swaps in host-to-device queue order: their
     * in_start times never decrease along it.
     */
    std::vector<std::size_t> h2d_order;
};

/** Measured outcome of executing a swap plan over a trace. */
struct SwapExecutionResult : LinkSchedule {
    /** Peak device-resident bytes with the plan applied. */
    std::size_t new_peak_bytes = 0;
};

/** @return the peak bytes a plan saved: 0 unless it lowered the peak. */
constexpr std::size_t
peak_saving(std::size_t original_peak, std::size_t new_peak)
{
    return original_peak > new_peak ? original_peak - new_peak : 0;
}

/**
 * Times every copy of @p legs on the shared link @p scheduler (which
 * may already carry traffic; state accumulates across calls). The
 * legs are read where they live — a relief plan passes its swap or
 * peer decisions without copying them into a SwapPlanReport — and
 * the schedule's swaps are aligned with them. Reads @p view's shared
 * Timeline — validating a plan never rebuilds the index the planner
 * used — and computes no peak: a caller combining several links'
 * schedules makes one what-if peak over all of them.
 *
 * Swap-outs enter the D2H queue in (gap_start, block) order, taken
 * as given when the legs are already in it, as both planners emit
 * them; swap-ins enter the H2D queue ordered by their ideal start
 * (gap_end - transfer time, clamped to the swap-out completion). A
 * swap-in finishing past its gap end is a measured stall.
 *
 * @throws Error when a decision's slot is out of range or holds
 * another block id, or its gap leaves that lifetime or does not run
 * between two of its accesses.
 */
LinkSchedule schedule_plan(const analysis::TraceView &view,
                           const std::vector<const SwapDecision *> &legs,
                           sim::LinkScheduler &scheduler);

/**
 * Appends @p schedule's residency edges to @p edges: each swapped
 * block of @p legs (the legs @p schedule was made from) leaves the
 * device once its *scheduled* swap-out completes and returns when
 * its *scheduled* swap-in starts. The edges come as two runs for
 * Timeline::peak_with to merge: every swap-out in the legs' order
 * (D2H queue order when the legs are in (gap_start, block) order),
 * then every swap-in in H2D queue order.
 */
void append_residency_edges(const LinkSchedule &schedule,
                            const std::vector<const SwapDecision *> &legs,
                            std::vector<analysis::OccupancyEdge> &edges);

/**
 * Executes @p plan against @p view's trace: schedule_plan of its
 * decisions on @p scheduler, then one Timeline::peak_with over the
 * schedule's residency edges.
 *
 * @throws Error as schedule_plan.
 */
SwapExecutionResult execute_plan(const analysis::TraceView &view,
                                 const SwapPlanReport &plan,
                                 sim::LinkScheduler &scheduler);

/**
 * Convenience overload: executes on a fresh shared link with
 * @p link's bandwidths.
 */
SwapExecutionResult execute_plan(const analysis::TraceView &view,
                                 const SwapPlanReport &plan,
                                 const analysis::LinkBandwidth &link);

}  // namespace swap
}  // namespace pinpoint

