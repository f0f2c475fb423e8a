/**
 * @file
 * Access time interval (ATI) extraction. The paper defines the ATI as
 * the elapsed time between two adjacent memory accesses to the same
 * device memory block (Sec. III); Figs. 3 and 4 are computed from the
 * samples this module produces.
 */
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/types.h"
#include "trace/event.h"

namespace pinpoint {
namespace analysis {

/** One ATI observation: the pair-wise datum of the paper's Fig. 4. */
struct AtiSample {
    /** Global index of the closing access (the Fig. 4 x-axis). */
    std::size_t behavior_index = 0;
    BlockId block = kInvalidBlock;
    /** Block size in bytes (the Fig. 4 right y-axis). */
    std::size_t size = 0;
    /** The interval itself. */
    TimeNs interval = 0;
    /** Timestamp of the closing access. */
    TimeNs at_time = 0;
    Category category = Category::kIntermediate;
    /**
     * The op issuing the closing access (attribution), as an id in
     * the view's name table (TraceView::op_name).
     */
    trace::OpId op = 0;
};

/** Options for ATI extraction. */
struct AtiOptions {
    /**
     * Count malloc/free as accesses too. The paper's definition uses
     * "memory access"; reads and writes only is the default.
     */
    bool include_alloc_free = false;
};

class Timeline;
class TraceView;

/** The ATI statistics the report and the sweep print (Fig. 3). */
struct AtiStats {
    /** Number of ATI samples. */
    std::size_t count = 0;
    /** Median, 90th percentile and maximum, in microseconds; 0
     * when there are no samples. */
    double median = 0.0;
    double p90 = 0.0;
    double max = 0.0;
};

/**
 * @return the ATI statistics of @p timeline's trace: the intervals
 * are the consecutive differences of each lifetime's access list,
 * the multiset compute_atis() yields (one chain per slot), and each
 * field equals summarize(ati_microseconds(compute_atis(view)))'s
 * bit for bit. No sample is built and nothing is fully sorted.
 */
AtiStats ati_stats(const Timeline &timeline);

/**
 * Computes every ATI sample of @p view's trace, ordered by the
 * closing access's position in the trace.
 */
std::vector<AtiSample> compute_atis(const TraceView &view,
                                    const AtiOptions &options = {});

/** @return just the intervals in microseconds (for Cdf/violin). */
std::vector<double> ati_microseconds(const std::vector<AtiSample> &atis);

/** Aggregate ATI statistics attributed to one op-name prefix. */
struct AtiAttribution {
    std::string prefix;
    std::size_t count = 0;
    double median_us = 0.0;
    double p90_us = 0.0;
};

/**
 * Groups samples by the first dot-separated component of the closing
 * op name (e.g. "fc0", "sgd", "dataset") and summarizes each group,
 * descending by count. Answers "which ops create which gaps".
 * @p atis must come from compute_atis(@p view).
 */
std::vector<AtiAttribution>
attribute_atis(const TraceView &view, const std::vector<AtiSample> &atis);

}  // namespace analysis
}  // namespace pinpoint

