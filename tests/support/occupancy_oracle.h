/**
 * @file
 * Test-only occupancy oracle: the what-if peak computed the plain
 * way, by one full sort of every edge. Library code answers the same
 * question with analysis::Timeline::peak_with, which merges a plan's
 * edges into the frozen sorted baseline; tests check it against this.
 */
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "analysis/timeline.h"

namespace pinpoint {
namespace test_support {

/**
 * @return @p edges fully sorted by time, and at equal times by delta,
 * so negative deltas apply first and a window that closes exactly
 * where another opens never double-counts.
 */
inline std::vector<analysis::OccupancyEdge>
sorted_edges(std::vector<analysis::OccupancyEdge> edges)
{
    std::sort(edges.begin(), edges.end(),
              [](const analysis::OccupancyEdge &a,
                 const analysis::OccupancyEdge &b) {
                  if (a.t != b.t)
                      return a.t < b.t;
                  return a.delta < b.delta;
              });
    return edges;
}

/** @return the peak of the running occupancy sum over @p edges. */
inline std::size_t
peak_occupancy(std::vector<analysis::OccupancyEdge> edges)
{
    std::int64_t cur = 0;
    std::int64_t best = 0;
    for (const auto &e : sorted_edges(std::move(edges))) {
        cur += e.delta;
        best = std::max(best, cur);
    }
    return static_cast<std::size_t>(best);
}

}  // namespace test_support
}  // namespace pinpoint
