/**
 * @file
 * Recompute-producer index: maps each block to the forward op that
 * first wrote it and that op's measured duration — the price of
 * re-running it once more. The compute-side counterpart of the
 * Eq. 1 swap model, consumed by the relief planners.
 *
 * Lives in analysis/ (not relief/) because it is a sub-index of
 * TraceView, built once per run and shared by every consumer, next
 * to the Timeline and the iteration pattern.
 */
#pragma once

#include <string>
#include <vector>

#include "core/types.h"
#include "trace/event.h"

namespace pinpoint {
namespace analysis {

class TraceView;

/**
 * The forward op that materialized a block, with its measured
 * duration — the price of running it once more.
 */
struct Producer {
    /**
     * Interned op name (TraceView::op_name), e.g.
     * "layer1.0.conv2.forward".
     */
    trace::OpId op = 0;
    /**
     * Measured duration of that op instance in the trace; 0 when the
     * block has no priceable forward producer.
     */
    TimeNs forward_ns = 0;
};

/**
 * Each block's producing forward op, the recompute price list,
 * indexed by TraceView slot (one entry per slot).
 */
using ProducerIndex = std::vector<Producer>;

/**
 * Builds the producer index of @p view's trace. A block has a
 * producer (forward_ns > 0) only when it is recomputable: its
 * earliest write from a forward-phase op (not backward, optimizer,
 * or data-load) of the intermediate category whose measured duration
 * is positive.
 *
 * Prefer the cached copy at TraceView::producers(); this free
 * function computes a fresh index (the view caches through it).
 */
ProducerIndex index_producers(const TraceView &view);

/** @return true when op name @p op belongs to the forward phase. */
bool is_forward_op(const std::string &op);

}  // namespace analysis
}  // namespace pinpoint
