/**
 * @file
 * Test-only occupancy oracle: a trace's alloc/free edges read
 * straight from the recorder, and the what-if peak computed the
 * plain way, by one full sort of every edge. Library code answers
 * the same questions with analysis::Timeline, whose sorted baseline
 * edges are private; tests check its probes against this.
 */
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "analysis/timeline.h"
#include "core/types.h"
#include "trace/recorder.h"

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

/**
 * @return the alloc/free edges of every block of @p r, fully sorted:
 * the baseline Timeline keeps privately, rebuilt without it.
 */
inline std::vector<analysis::OccupancyEdge>
sorted_edges_oracle(const trace::TraceRecorder &r)
{
    std::map<BlockId, std::size_t> size_of;
    std::vector<analysis::OccupancyEdge> edges;
    for (const auto &e : r.events()) {
        if (e.kind == trace::EventKind::kMalloc) {
            size_of[e.block] = e.size;
            edges.push_back({e.time, static_cast<std::int64_t>(e.size)});
        } else if (e.kind == trace::EventKind::kFree) {
            edges.push_back(
                {e.time, -static_cast<std::int64_t>(size_of[e.block])});
        }
    }
    return sorted_edges(std::move(edges));
}

/** @return the occupancy after every edge of @p edges at or before @p t. */
inline std::size_t
occupancy_at(const std::vector<analysis::OccupancyEdge> &edges, TimeNs t)
{
    std::int64_t cur = 0;
    for (const auto &e : edges)
        if (e.t <= t)
            cur += e.delta;
    return static_cast<std::size_t>(cur);
}

}  // namespace test_support
}  // namespace pinpoint
