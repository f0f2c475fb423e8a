/**
 * @file
 * Recomputation (activation-checkpointing) planner — the compute-side
 * counterpart of the Eq. 1 swap planner. Where swapping buys device
 * memory with PCIe transfer time, recomputation buys it with extra
 * forward kernels: an activation is dropped after its last forward
 * use and re-materialized by re-running its producing layer right
 * before the backward pass needs it (Capuchin/vDNN lineage, see
 * PAPERS.md).
 *
 * The cost model is measured, not analytic: each candidate tensor's
 * recompute cost is the *observed* duration of the op that first
 * wrote it — the producing layer's forward time as recorded in the
 * trace — so the planner consumes exactly the same timeline data as
 * the swap planner and needs no extra instrumentation.
 */
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/trace_view.h"
#include "core/types.h"

namespace pinpoint {
namespace relief {

/** Recompute planner configuration. */
struct RecomputeOptions {
    /** Ignore blocks smaller than this (re-launch isn't free). */
    std::size_t min_block_bytes = 1024 * 1024;
};

/** One drop-and-recompute assignment for a block's access gap. */
struct RecomputeDecision {
    BlockId block = kInvalidBlock;
    TensorId tensor = kInvalidTensor;
    std::size_t size = 0;
    /** Access closing the gap start: the block is dropped here. */
    TimeNs gap_start = 0;
    /** Next access: the producer re-runs to re-materialize by here. */
    TimeNs gap_end = 0;
    /** gap_end - gap_start. */
    TimeNs gap = 0;
    /** Producing forward op re-run by this decision. */
    std::string producer;
    /**
     * Measured forward time of the producer — the compute overhead
     * this decision adds. Unlike a hideable swap, recomputation is
     * never free: the re-run occupies the device's compute stream.
     */
    TimeNs recompute_cost = 0;
};

/** Recompute planner output. */
struct RecomputePlanReport {
    std::vector<RecomputeDecision> decisions;
    /** Sum of sizes over scheduled decisions. */
    std::size_t total_recomputed_bytes = 0;
    /** Peak live bytes of the original trace. */
    std::size_t original_peak_bytes = 0;
    /**
     * Bytes absent from the device at the original peak instant.
     * A dropped block vanishes the moment its last use completes
     * and is live again while its producer replays over the last
     * recompute_cost ns of the gap, so the absence window is
     * [gap_start, gap_end - recompute_cost) — the compute-adjusted
     * analogue of the swap executor's residency window. Gaps the
     * re-run cannot fit inside are not scheduled at all.
     */
    std::size_t peak_reduction_bytes = 0;
    /** Sum of per-decision recompute costs. */
    TimeNs predicted_overhead = 0;
};

/**
 * Plans activation recomputation for a recorded trace. Stateless;
 * one instance can plan many traces.
 */
class RecomputePlanner
{
  public:
    explicit RecomputePlanner(RecomputeOptions options);

    /**
     * Builds the recompute schedule for @p view's trace, reading
     * the view's shared Timeline and producer index.
     */
    RecomputePlanReport
    plan(const analysis::TraceView &view) const;

  private:
    RecomputeOptions options_;
};

}  // namespace relief
}  // namespace pinpoint

