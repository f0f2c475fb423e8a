/**
 * @file
 * Device memory occupation breakdown by storage content (input data /
 * parameters / intermediate results), the analysis behind Figs. 5-7.
 */
#pragma once

#include <array>
#include <cstddef>
#include <numeric>

#include "core/types.h"

namespace pinpoint {
namespace analysis {

class TraceView;

/** Peak-occupancy breakdown of one training run. */
struct BreakdownResult {
    /** Time at which the peak of total live bytes occurred. */
    TimeNs peak_time = 0;
    /** Live bytes per Category at the peak instant. */
    std::array<std::size_t, kNumCategories> at_peak{};
    /** Independent per-category high-water marks. */
    std::array<std::size_t, kNumCategories> peak_per_category{};

    /** @return the peak of total live bytes: the sum of at_peak. */
    std::size_t peak_total() const
    {
        return std::accumulate(at_peak.begin(), at_peak.end(), std::size_t{0});
    }

    /** @return fraction of the peak held by @p c. */
    double fraction(Category c) const;
};

/**
 * Replays the malloc/free events of @p view and reports the
 * category breakdown at peak occupancy.
 */
BreakdownResult occupation_breakdown(const TraceView &view);

}  // namespace analysis
}  // namespace pinpoint

