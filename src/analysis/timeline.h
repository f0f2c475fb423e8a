/**
 * @file
 * Block timeline reconstruction: turns the flat event trace into
 * per-block lifetimes with access lists — the data behind the
 * paper's Gantt chart (Fig. 2).
 *
 * A Timeline is a sub-index of analysis::TraceView and can only be
 * built by one: every consumer shares the single instance the view
 * caches instead of re-deriving it (`view.timeline()`), which is
 * what keeps a full `relief` run at exactly one timeline
 * construction: one pass over the time-ordered events.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/types.h"

namespace pinpoint {
namespace analysis {

class TraceView;

/**
 * One block's life: the rectangle of the paper's Gantt chart. The
 * fields are ordered widest first, so that the Timeline's entry per
 * block packs into 64 bytes.
 */
struct BlockLifetime {
    BlockId block = kInvalidBlock;
    DevPtr ptr = kNullDevPtr;
    std::size_t size = 0;
    TensorId tensor = kInvalidTensor;
    TimeNs alloc_time = 0;
    /** Free timestamp; meaningful only when freed is true. */
    TimeNs free_time = 0;
    /** Iteration in which the block was allocated. */
    std::uint32_t alloc_iteration = 0;
    /**
     * The block's read/write timestamps are Timeline::accesses()
     * entries [first_access, first_access + access_count), in order.
     * 32 bits suffice: TraceView refuses traces of 2^32 events or
     * more.
     */
    std::uint32_t first_access = 0;
    std::uint32_t access_count = 0;
    Category category = Category::kIntermediate;
    bool freed = false;

    /** @return lifetime width; for unfreed blocks, up to @p end. */
    TimeNs lifetime(TimeNs end) const
    {
        return (freed ? free_time : end) - alloc_time;
    }
};

static_assert(sizeof(BlockLifetime) == 64,
              "BlockLifetime must stay packed into 64 bytes");

/**
 * One block's read/write timestamps, in order: a view into the
 * Timeline's one flat access array, valid while the Timeline lives.
 */
struct AccessList {
    const TimeNs *first = nullptr;
    const TimeNs *last = nullptr;

    const TimeNs *begin() const { return first; }
    const TimeNs *end() const { return last; }
    std::size_t size() const
    {
        return static_cast<std::size_t>(last - first);
    }
    TimeNs operator[](std::size_t i) const { return first[i]; }
};

/** Free-gap statistics of the live-block address layout at a time. */
struct GapStats {
    /** Number of live blocks at the probe time. */
    std::size_t live_blocks = 0;
    /** Bytes of live blocks. */
    std::size_t live_bytes = 0;
    /** Address span from lowest to highest live byte. */
    std::size_t span_bytes = 0;
    /** Bytes of holes between live blocks within the span. */
    std::size_t gap_bytes = 0;

    /** @return gap fraction of the span (the paper's "fragments"). */
    double
    gap_fraction() const
    {
        return span_bytes == 0
                   ? 0.0
                   : static_cast<double>(gap_bytes) /
                         static_cast<double>(span_bytes);
    }
};

/**
 * Occupancy change at a time point. The common currency of the
 * what-if peak computations: the swap executor and the relief
 * planner both describe a plan as the edges it adds to the trace's
 * own and ask Timeline::peak_with, so their peak arithmetic can
 * never drift apart.
 */
struct OccupancyEdge {
    TimeNs t;
    std::int64_t delta;
};

/**
 * @return true when @p a sorts before @p b in occupancy order: by
 * time, and at equal times by delta, so frees apply before allocs
 * and a window that closes exactly where another opens never
 * double-counts.
 */
inline bool
edge_before(const OccupancyEdge &a, const OccupancyEdge &b)
{
    return a.t != b.t ? a.t < b.t : a.delta < b.delta;
}

/**
 * Blocks [first, first + count) of a Timeline that repeat its blocks
 * [source, source + count) moved in time and id: the same sizes,
 * tensors, categories and access intervals (a TraceView tile).
 */
struct BlockTile {
    std::uint32_t source = 0;
    std::uint32_t first = 0;
    std::uint32_t count = 0;
};

/**
 * Per-block view of a trace. Immutable; construction is one pass
 * over the time-ordered events (only runs of equal timestamps are
 * sorted) and happens exactly once per TraceView,
 * inside TraceView::timeline() — there is deliberately no public
 * constructor, so no consumer can rebuild the index ad hoc.
 *
 * Beyond the lifetimes themselves, the index owns the sorted
 * occupancy edges and their prefix sums, so the point probes
 * (live_bytes_at, peak_time, peak_bytes) answer in O(log n) / O(1)
 * instead of rescanning every block, and a what-if peak (peak_with)
 * merges a plan's k edges, given as r sorted runs, into them in
 * O(n + k log r).
 */
class Timeline
{
  public:
    /**
     * @return every block, ordered by allocation time; blocks()[s]
     * is the block of TraceView slot s.
     */
    const std::vector<BlockLifetime> &blocks() const { return blocks_; }

    /** @return the read/write timestamps of @p block, in order. */
    AccessList
    accesses(const BlockLifetime &block) const
    {
        const TimeNs *first = accesses_.data() + block.first_access;
        return {first, first + block.access_count};
    }

    /** @return time of the first event (0 for empty traces). */
    TimeNs start() const { return start_; }

    /** @return time of the last event. */
    TimeNs end() const { return end_; }

    /**
     * @return blocks whose lifetime covers @p t, in allocation
     * order. Scans the blocks allocated up to @p t (binary search
     * bounds the scan on the right; early probes are cheap, late
     * probes still visit every earlier allocation). For the total
     * live *bytes* use live_bytes_at — that one is O(log n).
     */
    std::vector<const BlockLifetime *> live_at(TimeNs t) const;

    /**
     * @return total bytes of blocks live at @p t. O(log n): a
     * prefix-sum lookup over the sorted occupancy edges.
     */
    std::size_t live_bytes_at(TimeNs t) const;

    /** @return address-layout gap statistics at @p t. */
    GapStats gaps_at(TimeNs t) const;

    /**
     * @return the instant of peak live bytes (first such instant).
     * O(1): cached from the edge sweep at construction.
     */
    TimeNs peak_time() const { return peak_time_; }

    /**
     * @return peak live bytes over the trace. O(1); equal to
     * live_bytes_at(peak_time()) by construction.
     */
    std::size_t peak_bytes() const { return peak_bytes_; }

    /**
     * @return the peak of the running occupancy sum over every
     * block's alloc/free edges plus @p extra, as if both were
     * sorted together by edge_before. @p extra may come in any
     * order: its maximal sorted runs are merged pairwise, so k
     * edges in r runs cost O(k log r) (O(k) when already sorted,
     * O(k log k) when shuffled), and the result is merged into the
     * frozen edges without a copy of the n baseline edges: O(n + k
     * log r) in all. Callers pass few runs — a link schedule's
     * residency edges are two, swap-outs in D2H order then swap-ins
     * in H2D order. Equal keys carry equal deltas, so the merge
     * visits the same running sums as one sort of the union would.
     */
    std::size_t peak_with(std::vector<OccupancyEdge> extra) const;

    /** @return every block's alloc and free edge, sorted. */
    const std::vector<OccupancyEdge> &edges() const { return edges_; }

    /**
     * @return the occupancy after each prefix of edges(): entry i
     * sums the first i edges' deltas.
     */
    const std::vector<std::int64_t> &prefix() const { return prefix_; }

    /**
     * @return the runs of blocks that repeat earlier ones, in slot
     * order; empty for a trace without tiles.
     */
    const std::vector<BlockTile> &block_tiles() const
    {
        return block_tiles_;
    }

  private:
    /** Built exclusively by TraceView::timeline(). */
    Timeline() = default;
    friend class TraceView;

    std::vector<BlockLifetime> blocks_;
    /** Every block's access timestamps, block after block. */
    std::vector<TimeNs> accesses_;
    TimeNs start_ = 0;
    TimeNs end_ = 0;
    /** Edges sorted by edge_before: frees before allocs at ties. */
    std::vector<OccupancyEdge> edges_;
    /** prefix_[i] = occupancy after the first i sorted edges. */
    std::vector<std::int64_t> prefix_;
    TimeNs peak_time_ = 0;
    std::size_t peak_bytes_ = 0;
    std::vector<BlockTile> block_tiles_;
};

/** One access gap of one block lifetime. */
struct AccessGap {
    /** Access opening the gap. */
    TimeNs start = 0;
    /** Next access of the same block. */
    TimeNs end = 0;
    /** Timeline slot of the lifetime: timeline.blocks()[slot]. */
    std::size_t slot = 0;
};

/**
 * @return every gap between two successive, distinct-time accesses
 * of a block of at least @p min_block_bytes in @p view's Timeline,
 * in (start, block id, slot) order: the order of every relief plan's
 * decisions. Only gaps between two accesses count — before the
 * first access a block holds no data worth preserving, and after
 * the last one it is about to be freed. One walk over the
 * time-ordered events backs both the swap planner and the unified
 * relief planner; it meets the gaps in start order, so only runs of
 * equal starts are sorted, and never a priced decision.
 */
std::vector<AccessGap> access_gaps(const TraceView &view,
                                   std::size_t min_block_bytes);

}  // namespace analysis
}  // namespace pinpoint

