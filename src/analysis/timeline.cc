#include "analysis/timeline.h"
#include "analysis/trace_view.h"
#include "core/sorted_runs.h"
#include "core/types.h"
#include "trace/event.h"

#include <algorithm>

namespace pinpoint {
namespace analysis {

// Construction lives in trace_view.cc (TraceView::timeline() is the
// one build site); this file implements the probes and the gap walk.

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
    merge_sorted_runs(extra, edge_before);
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

std::vector<AccessGap>
access_gaps(const TraceView &view, std::size_t min_block_bytes)
{
    const Timeline &timeline = view.timeline();
    const std::vector<BlockLifetime> &blocks = timeline.blocks();
    // Per slot, the unread rest of the block's access list; empty for
    // a block too small to count, so the walk skips its events
    // without reading its lifetime.
    std::vector<AccessList> rest(blocks.size());
    std::size_t count = 0;
    for (std::size_t slot = 0; slot < blocks.size(); ++slot) {
        if (blocks[slot].size >= min_block_bytes &&
            blocks[slot].access_count > 1) {
            rest[slot] = timeline.accesses(blocks[slot]);
            count += blocks[slot].access_count - 1;
        }
    }
    std::vector<AccessGap> gaps;
    gaps.reserve(count);
    // A block's k-th access event is entry k of its access list, so
    // the walk over the time-ordered events meets every gap at its
    // start, with its end the list's next entry: the gaps come out
    // in start order, and only runs of equal starts need a sort.
    for (std::size_t i = 0; i < view.size(); ++i) {
        const trace::EventKind kind = view.kind(i);
        if (kind != trace::EventKind::kRead &&
            kind != trace::EventKind::kWrite)
            continue;
        AccessList &list = rest[view.slot(i)];
        if (list.size() < 2)
            continue;
        ++list.first;
        if (*list.first > view.time(i))
            gaps.push_back({view.time(i), *list.first, view.slot(i)});
    }
    for (std::size_t lo = 0; lo < gaps.size();) {
        std::size_t hi = lo + 1;
        while (hi < gaps.size() && gaps[hi].start == gaps[lo].start)
            ++hi;
        if (hi - lo > 1)
            std::sort(gaps.begin() + static_cast<std::ptrdiff_t>(lo),
                      gaps.begin() + static_cast<std::ptrdiff_t>(hi),
                      [&](const AccessGap &a, const AccessGap &b) {
                          const BlockId ia = blocks[a.slot].block;
                          const BlockId ib = blocks[b.slot].block;
                          return ia != ib ? ia < ib : a.slot < b.slot;
                      });
        lo = hi;
    }
    return gaps;
}

}  // namespace analysis
}  // namespace pinpoint
