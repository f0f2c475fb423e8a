#include "analysis/timeline.h"
#include "core/types.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace pinpoint {
namespace analysis {

// Construction lives in trace_view.cc (TraceView::timeline() is the
// one build site); this file implements only the probes.

const BlockLifetime *
Timeline::find(BlockId id, TimeNs t) const
{
    // by_id_ orders blocks by (id, allocation time), so the last
    // block before the first one past (id, t) is the answer when it
    // has id @p id; otherwise that first one is, when it has.
    const auto key = std::make_pair(id, t);
    const auto after = std::upper_bound(
        by_id_.begin(), by_id_.end(), key,
        [&](const std::pair<BlockId, TimeNs> &probe, std::size_t i) {
            return probe <
                   std::make_pair(blocks_[i].block, blocks_[i].alloc_time);
        });
    if (after != by_id_.begin() && blocks_[*std::prev(after)].block == id)
        return &blocks_[*std::prev(after)];
    return after != by_id_.end() && blocks_[*after].block == id
               ? &blocks_[*after]
               : nullptr;
}

std::vector<const BlockLifetime *>
Timeline::live_at(TimeNs t) const
{
    std::vector<const BlockLifetime *> out;
    // blocks_ is ordered by allocation time — guaranteed because
    // TraceRecorder::record rejects out-of-order events and
    // TraceView (the only Timeline builder) appends blocks in event
    // order — so every candidate precedes the first block allocated
    // after t.
    const auto last = std::upper_bound(
        blocks_.begin(), blocks_.end(), t,
        [](TimeNs probe, const BlockLifetime &b) {
            return probe < b.alloc_time;
        });
    for (auto it = blocks_.begin(); it != last; ++it) {
        if (!it->freed || it->free_time > t)
            out.push_back(&*it);
    }
    return out;
}

std::size_t
Timeline::live_bytes_at(TimeNs t) const
{
    // Occupancy after every edge with time <= t. Frees sort before
    // allocs at equal times, but both still apply at their instant,
    // so the prefix at the partition point is exactly the sum over
    // blocks with alloc_time <= t and (unfreed or free_time > t).
    const auto it = std::upper_bound(
        edges_.begin(), edges_.end(), t,
        [](TimeNs probe, const OccupancyEdge &e) {
            return probe < e.t;
        });
    const auto idx = static_cast<std::size_t>(it - edges_.begin());
    return static_cast<std::size_t>(prefix_[idx]);
}

GapStats
Timeline::gaps_at(TimeNs t) const
{
    GapStats g;
    auto live = live_at(t);
    if (live.empty())
        return g;
    std::sort(live.begin(), live.end(),
              [](const BlockLifetime *a, const BlockLifetime *b) {
                  return a->ptr < b->ptr;
              });
    g.live_blocks = live.size();
    DevPtr cursor = live.front()->ptr;
    for (const auto *b : live) {
        g.live_bytes += b->size;
        if (b->ptr > cursor)
            g.gap_bytes += b->ptr - cursor;
        cursor = std::max<DevPtr>(cursor, b->ptr + b->size);
    }
    g.span_bytes =
        static_cast<std::size_t>(cursor - live.front()->ptr);
    return g;
}

std::size_t
Timeline::peak_with(std::vector<OccupancyEdge> extra) const
{
    // No extra edges: the running sums are the frozen prefix_, whose
    // maximum (clamped at 0) is peak_bytes_.
    if (extra.empty())
        return peak_bytes_;
    std::sort(extra.begin(), extra.end(), edge_before);
    // Running occupancy at any point of the merge is the baseline
    // prefix so far plus the extra deltas merged so far (shift).
    std::int64_t best = 0;
    std::int64_t shift = 0;
    std::size_t i = 0;
    const std::size_t n = edges_.size();
    for (const auto &e : extra) {
        for (; i < n && edge_before(edges_[i], e); ++i)
            best = std::max(best, prefix_[i + 1] + shift);
        shift += e.delta;
        best = std::max(best, prefix_[i] + shift);
    }
    for (; i < n; ++i)
        best = std::max(best, prefix_[i + 1] + shift);
    return static_cast<std::size_t>(best);
}

}  // namespace analysis
}  // namespace pinpoint
