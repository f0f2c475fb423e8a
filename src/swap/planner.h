/**
 * @file
 * Automatic swap planner — the "automatic cost model to sift out
 * these memory access behaviors" the paper names as future work
 * (Sec. III/IV). Takes a recorded trace, finds access gaps on large
 * blocks, applies the Eq. 1 feasibility bound, and emits a swap
 * schedule with predicted savings and overhead.
 */
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "analysis/swap_model.h"
#include "analysis/timeline.h"
#include "analysis/trace_view.h"
#include "core/types.h"

namespace pinpoint {
namespace swap {

/** Planner configuration. */
struct PlannerOptions {
    /** Host link bandwidths for Eq. 1. */
    analysis::LinkBandwidth link;
    /**
     * Required headroom: a gap qualifies when
     * gap >= safety_factor * round_trip(size). 1.0 = the paper's
     * exact bound.
     */
    double safety_factor = 1.0;
    /** Ignore blocks smaller than this (swap setup isn't free). */
    std::size_t min_block_bytes = 1024 * 1024;
    /**
     * Also schedule non-hideable swaps (for memory-capacity rescue);
     * their stall time is accumulated as predicted overhead.
     */
    bool allow_overhead = false;
};

/**
 * Eq. 1 evaluation of one access gap of a block: the hide verdict,
 * the stall and the peak credit. One shared implementation backs
 * both the swap planner and the swap and peer options of the unified
 * relief planner, so they can never drift apart on the hide bound,
 * overhead saturation, or the residency window (the bug class PR 2
 * fixed by sharing analysis::transfer_ns).
 */
struct GapEvaluation {
    /** gap / round_trip(size). */
    double hide_ratio = 0.0;
    /** hide_ratio >= the safety factor: the round trip hides. */
    bool hideable = false;
    /** Saturating stall: 0 when the raw round trip fits the gap. */
    TimeNs overhead = 0;
    /**
     * The block is off the device at the peak instant: the peak falls
     * in the transfer-adjusted residency window, from swap-out
     * completion up to (not including) swap-in start, rather than
     * anywhere in the raw gap.
     */
    bool covers_peak = false;
};

/**
 * Evaluates swapping a @p size-byte block out and back inside the
 * access gap [gap_start, gap_end] over @p link, crediting the peak
 * at @p peak_time. @p latency_ns is the link's fixed per-transfer
 * setup cost, charged once per leg: 0 for the host PCIe link (folded
 * into the measured asymptote), the interconnect latency for
 * peer-offload legs.
 */
GapEvaluation evaluate_swap_gap(std::size_t size, TimeNs gap_start,
                                TimeNs gap_end, TimeNs peak_time,
                                const analysis::LinkBandwidth &link,
                                double safety_factor,
                                TimeNs latency_ns = 0);

/** "Not found by a planner": out of range for every Timeline. */
inline constexpr std::size_t kNoSlot =
    std::numeric_limits<std::size_t>::max();

/** One swap-out/swap-in pair for the block's gap [gap_start, gap_end]. */
struct SwapDecision {
    BlockId block = kInvalidBlock;
    /**
     * Timeline slot of the lifetime the planner found the gap in. A
     * trace may reuse a block id after its free, so the id alone does
     * not name a lifetime; the executor checks the gap through this.
     */
    std::size_t slot = kNoSlot;
    TensorId tensor = kInvalidTensor;
    std::size_t size = 0;
    /** Access closing the gap start: swap-out begins here. */
    TimeNs gap_start = 0;
    /** Next access: swap-in must complete by here. */
    TimeNs gap_end = 0;
    /** gap / round_trip(size); >= safety factor when hideable. */
    double hide_ratio = 0.0;
    /** Stall this decision adds (0 for hideable swaps). */
    TimeNs overhead = 0;
};

/** Planner output; totals_of sums its decisions. */
struct SwapPlanReport {
    /** In (gap_start, block) order. */
    std::vector<SwapDecision> decisions;
    /**
     * Bytes absent from the device at the original peak instant,
     * using the executor's residency window (swap-out completion to
     * swap-in start) rather than the raw access gap.
     */
    std::size_t peak_reduction_bytes = 0;
};

/** Sums over a swap plan's decisions. */
struct PlanTotals {
    /** Bytes moved out, and back in. */
    std::size_t bytes = 0;
    /** Predicted stall (0 unless allow_overhead). */
    TimeNs overhead = 0;
};

/** @return the size and overhead sums of @p plan's decisions. */
PlanTotals totals_of(const SwapPlanReport &plan);

/**
 * Plans swapping for a recorded trace. Stateless; one instance can
 * plan many traces.
 */
class SwapPlanner
{
  public:
    explicit SwapPlanner(PlannerOptions options);

    /**
     * Builds the swap schedule for @p view's trace, reading the
     * view's shared Timeline (never a private rebuild).
     */
    SwapPlanReport plan(const analysis::TraceView &view) const;

  private:
    PlannerOptions options_;
};

}  // namespace swap
}  // namespace pinpoint

