#include "analysis/trace_view.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "analysis/iteration.h"
#include "analysis/producers.h"
#include "analysis/timeline.h"
#include "core/check.h"
#include "core/flat_table.h"
#include "core/huge_pages.h"
#include "core/types.h"
#include "trace/event.h"
#include "trace/recorder.h"

namespace pinpoint {
namespace analysis {

namespace {

/** @return whether @p kind reads or writes its block. */
bool
is_access(trace::EventKind kind)
{
    return kind == trace::EventKind::kRead ||
           kind == trace::EventKind::kWrite;
}

/** What the freeze learns of a candidate tile source as it walks it. */
struct SourceCheck {
    /**
     * It closes every chain it opens and only reads and writes the
     * chains open before it.
     */
    bool closed = true;
    /** The smallest and largest id of the chains it opens. */
    BlockId min_opened = kInvalidBlock;
    BlockId max_opened = 0;
    /** The largest id of the chains open before it that it touches. */
    BlockId max_outside = 0;
    /**
     * The freeze's count of chain changes when the chains it touches
     * that were open before it were last seen on their slots.
     */
    std::size_t verified = 0;
    /** A tile shifts from it. */
    bool used = false;
};

}  // namespace

TraceView::TraceView(const trace::TraceRecorder &recorder)
    : columns_(recorder.share()), op_names_(recorder.op_names())
{
    freeze();
    count_events(1);
}

void
TraceView::count_events(std::size_t per_event) const
{
    events_walked_.fetch_add(per_event * (size() - tiled_events_),
                             std::memory_order_relaxed);
    events_tiled_.fetch_add(per_event * tiled_events_,
                            std::memory_order_relaxed);
}

void
TraceView::freeze()
{
    const std::size_t n = size();
    PP_CHECK(n <= std::numeric_limits<std::uint32_t>::max(),
             "trace of " << n << " events exceeds the slot column");
    const trace::Column<BlockId> &block = columns_->block;
    const trace::Column<trace::EventKind> &kind = columns_->kind;
    const std::vector<trace::Tile> &recorded = columns_->tiles();

    // Candidate sources: the distinct source runs, in trace order; a
    // run that overlaps an earlier one is none, and its tiles are
    // walked.
    std::vector<TileSource> sources;
    for (const trace::Tile &tile : recorded) {
        TileSource s;
        s.begin = tile.source;
        s.end = tile.source + tile.count;
        sources.push_back(s);
    }
    std::sort(sources.begin(), sources.end(),
              [](const TileSource &a, const TileSource &b) {
                  return a.begin != b.begin ? a.begin < b.begin
                                            : a.end < b.end;
              });
    std::size_t kept = 0;
    for (const TileSource &s : sources)
        if (kept == 0 || s.begin >= sources[kept - 1].end)
            sources[kept++] = s;
    sources.resize(kept);
    std::vector<SourceCheck> checks(sources.size());

    // The trace's one BlockId lookup: id → its open chain's slot.
    // A free closes the chain, so the table holds only live ids.
    FlatTable<BlockId, std::uint32_t> chain_of;
    std::uint32_t slots = 0;
    // Chains opened or closed by walked events: while it stands
    // still, so do the open chains.
    std::size_t changes = 0;
    reserve_huge(slot_, n);
    slot_.resize(n);
    const auto walk = [&](std::size_t from, std::size_t to, auto &&note) {
        for (std::size_t i = from; i < to; ++i) {
            ++kind_count_[static_cast<std::size_t>(kind[i])];
            const auto entry = chain_of.try_emplace(block[i]);
            if (entry.second) {
                entry.first = slots++;
                ++changes;
            }
            slot_[i] = entry.first;
            note(i, entry.second);
            if (kind[i] == trace::EventKind::kFree) {
                chain_of.erase(block[i]);
                ++changes;
            }
        }
    };
    const auto plain = [](std::size_t, bool) {};
    const auto walk_source = [&](std::size_t index) {
        TileSource &s = sources[index];
        SourceCheck &check = checks[index];
        const std::size_t live = chain_of.size();
        const auto edges = [&] {
            return kind_count_[static_cast<int>(trace::EventKind::kMalloc)] +
                   kind_count_[static_cast<int>(trace::EventKind::kFree)];
        };
        s.first_slot = slots;
        s.first_edge = edges();
        s.kinds = kind_count_;
        walk(s.begin, s.end, [&](std::size_t i, bool opened) {
            if (block[i] == kInvalidBlock) {
                check.closed = false;
            } else if (opened) {
                check.min_opened = std::min(check.min_opened, block[i]);
                check.max_opened = std::max(check.max_opened, block[i]);
            } else if (slot_[i] < s.first_slot) {
                if (!is_access(kind[i]))
                    check.closed = false;
                s.outside.push_back(i);
                check.max_outside = std::max(check.max_outside, block[i]);
            }
        });
        s.end_slot = slots;
        s.end_edge = edges();
        for (int k = 0; k < trace::kNumEventKinds; ++k)
            s.kinds[k] = kind_count_[k] - s.kinds[k];
        // Nothing it touched from before is closed, so the same
        // count of open chains means it closed all it opened.
        check.closed = check.closed && chain_of.size() == live;
        check.verified = changes;
    };

    // Whether a tile of source @p index with @p shift opens its
    // chains as the source did, from the chains open now.
    std::size_t max_live_at = ~std::size_t{0};
    BlockId max_live = 0;
    const auto repeats = [&](std::size_t index,
                             const trace::EventShift &shift) {
        const TileSource &s = sources[index];
        SourceCheck &check = checks[index];
        if (!check.closed)
            return false;
        // Ids open before the source stay; the ids it opens move.
        if (!s.outside.empty() && check.max_outside >= shift.first_block)
            return false;
        const bool opens = s.first_slot != s.end_slot;
        if (opens && (check.min_opened < shift.first_block ||
                      shift.block >= kInvalidBlock - check.max_opened))
            return false;
        if (check.verified != changes) {
            for (std::size_t i : s.outside) {
                const std::uint32_t *slot = chain_of.find(block[i]);
                if (slot == nullptr || *slot != slot_[i])
                    return false;
            }
            check.verified = changes;
        }
        if (opens && chain_of.size() != 0) {
            if (max_live_at != changes) {
                max_live = 0;
                chain_of.for_each([&](BlockId id, std::uint32_t) {
                    max_live = std::max(max_live, id);
                });
                max_live_at = changes;
            }
            if (max_live >= check.min_opened + shift.block)
                return false;
        }
        return true;
    };

    std::size_t at = 0;
    std::size_t next = 0;
    const auto walk_to = [&](std::size_t to) {
        for (; next < sources.size() && sources[next].begin < to; ++next) {
            walk(at, sources[next].begin, plain);
            walk_source(next);
            at = sources[next].end;
        }
        walk(at, to, plain);
        at = to;
    };
    for (const trace::Tile &tile : recorded) {
        walk_to(tile.begin);
        at = tile.begin + tile.count;
        const auto source = std::lower_bound(
            sources.begin(), sources.end(), tile.source,
            [](const TileSource &s, std::size_t begin) {
                return s.begin < begin;
            });
        const std::size_t index =
            static_cast<std::size_t>(source - sources.begin());
        if (source == sources.end() || source->begin != tile.source ||
            source->end != at - tile.begin + tile.source ||
            !repeats(index, tile.shift)) {
            walk(tile.begin, at, plain);
            continue;
        }
        // A chain the source opened moves by the chains opened
        // since; one opened before it keeps its slot.
        const std::uint32_t first = source->first_slot;
        const std::uint32_t moved = slots - first;
        for (std::size_t j = 0; j < tile.count; ++j) {
            const std::uint32_t slot = slot_[source->begin + j];
            slot_[tile.begin + j] = slot < first ? slot : slot + moved;
        }
        for (int k = 0; k < trace::kNumEventKinds; ++k)
            kind_count_[k] += source->kinds[k];
        tiles_.push_back({tile.begin, at, index, tile.shift, slots});
        slots += source->end_slot - first;
        tiled_events_ += tile.count;
        checks[index].used = true;
    }
    walk_to(n);
    slot_count_ = slots;

    // Keep the sources a tile shifts from.
    std::vector<std::size_t> renumber(sources.size());
    for (std::size_t i = 0; i < sources.size(); ++i) {
        if (!checks[i].used)
            continue;
        renumber[i] = sources_.size();
        sources_.push_back(std::move(sources[i]));
    }
    for (ViewTile &tile : tiles_)
        tile.source = renumber[tile.source];
}

std::unique_ptr<const Timeline>
TraceView::build_timeline() const
{
    // The one Timeline construction site in the codebase: every
    // consumer shares this build through TraceView::timeline().
    std::unique_ptr<Timeline> t(new Timeline());
    // prefix_[0] must exist even for empty traces: live_bytes_at
    // answers from prefix_[upper_bound(...)], which is index 0 when
    // there are no edges.
    t->prefix_.push_back(0);
    const std::size_t n = size();
    if (n == 0)
        return t;
    const trace::EventColumns &c = *columns_;
    t->start_ = c.time.front();
    t->end_ = c.time.back();

    // Occupancy edges come out in trace order, which the recorder
    // guarantees is time order; only runs of equal timestamps still
    // need their (delta) order, so there is no full sort.
    std::vector<OccupancyEdge> &edges = t->edges_;
    reserve_huge(edges, count(trace::EventKind::kMalloc) +
                            count(trace::EventKind::kFree));
    // Slots open in event order, so while every chain so far began
    // with a malloc, block s is slot s: an event whose slot has no
    // block yet opened its chain without a malloc.
    std::vector<BlockLifetime> &blocks = t->blocks_;
    reserve_huge(blocks, slot_count_);

    // Access lists: one flat array, block after block, each run in
    // time order. The walked blocks' access counts come first, so
    // that the one walk below writes every block and every access
    // once, in place: at[s] is the count of walked slot s, then,
    // from its block's malloc on, where its next access goes. A
    // tile's blocks take its source's counts and runs, moved.
    // freeze() keeps n below 2^32, so the 32-bit indices cannot wrap.
    std::vector<std::uint32_t> at(slot_count_);
    std::uint32_t total = 0;
    for_each_run(
        [&](std::size_t from, std::size_t to, std::size_t) {
            for (std::size_t i = from; i < to; ++i) {
                if (is_access(c.kind[i])) {
                    ++at[slot_[i]];
                    ++total;
                }
            }
        },
        [&](const ViewTile &tile) {
            const TileSource &s = sources_[tile.source];
            for (std::size_t i : s.outside)
                ++at[slot_[i]];
            total += static_cast<std::uint32_t>(s.outside.size());
            for (std::uint32_t slot = s.first_slot; slot < s.end_slot; ++slot)
                total += at[slot];
        });
    std::vector<TimeNs> &accesses = t->accesses_;
    reserve_huge(accesses, total);
    accesses.resize(total);

    const auto sort_runs = [&](std::size_t from, std::size_t to) {
        for (std::size_t lo = from; lo < to;) {
            std::size_t hi = lo + 1;
            while (hi < to && edges[hi].t == edges[lo].t)
                ++hi;
            PP_CHECK(hi == edges.size() || edges[hi].t > edges[lo].t,
                     "trace events out of time order at "
                         << edges[hi].t);
            if (hi - lo > 1)
                std::sort(edges.begin() + static_cast<std::ptrdiff_t>(lo),
                          edges.begin() + static_cast<std::ptrdiff_t>(hi),
                          edge_before);
            lo = hi;
        }
    };
    // A source's edges away from its first and last instants form
    // runs of equal times of their own: its core, edges [lo, hi).
    // Each tile's core is its source's, moved, so it is sorted as
    // the source's was. The edges at a tile's ends may tie with its
    // neighbours' and are sorted with them.
    const auto core_of = [&](const TileSource &s) {
        std::size_t lo = s.first_edge;
        std::size_t hi = s.end_edge;
        if (lo == hi)
            return std::make_pair(lo, hi);
        const TimeNs first_t = edges[lo].t;
        const TimeNs last_t = edges[hi - 1].t;
        while (lo < hi && edges[lo].t == first_t)
            ++lo;
        while (hi > lo && edges[hi - 1].t == last_t)
            --hi;
        return std::make_pair(lo, hi);
    };

    // Per source, its blocks and edges as its walk left them, and
    // the slot and time of each access to an older block.
    struct SourceEntries {
        std::vector<BlockLifetime> blocks;
        std::vector<OccupancyEdge> edges;
        std::vector<std::pair<std::uint32_t, TimeNs>> outside;
    };
    std::vector<SourceEntries> source_entries(sources_.size());
    // Where each tile's edges begin.
    std::vector<std::size_t> tile_edges;
    tile_edges.reserve(tiles_.size());
    std::uint32_t next = 0;
    for_each_run(
        [&](std::size_t from, std::size_t to, std::size_t source) {
            for (std::size_t i = from; i < to; ++i) {
                const std::size_t slot = slot_[i];
                const bool open = slot < blocks.size();
                switch (c.kind[i]) {
                  case trace::EventKind::kMalloc: {
                    PP_CHECK(!open, "malloc of already-live block "
                                        << c.block[i]);
                    BlockLifetime b;
                    b.block = c.block[i];
                    b.ptr = c.ptr[i];
                    b.size = c.size[i];
                    b.category = c.category[i];
                    b.tensor = c.tensor[i];
                    b.alloc_iteration = c.iteration[i];
                    b.alloc_time = c.time[i];
                    b.first_access = next;
                    b.access_count = at[slot];
                    at[slot] = next;
                    next += b.access_count;
                    edges.push_back(
                        {c.time[i], static_cast<std::int64_t>(b.size)});
                    blocks.push_back(b);
                    break;
                  }
                  case trace::EventKind::kFree: {
                    PP_CHECK(open,
                             "free of unknown block " << c.block[i]);
                    BlockLifetime &b = blocks[slot];
                    b.free_time = c.time[i];
                    b.freed = true;
                    edges.push_back(
                        {c.time[i], -static_cast<std::int64_t>(b.size)});
                    break;
                  }
                  case trace::EventKind::kRead:
                  case trace::EventKind::kWrite:
                    PP_CHECK(open, "access to unallocated block "
                                       << c.block[i]);
                    accesses[at[slot]++] = c.time[i];
                    break;
                }
            }
            // Sorted before its tiles copy it.
            if (source != kNoSource) {
                const TileSource &s = sources_[source];
                const auto core = core_of(s);
                sort_runs(core.first, core.second);
                SourceEntries &own = source_entries[source];
                own.blocks.assign(blocks.begin() + s.first_slot,
                                  blocks.begin() + s.end_slot);
                own.edges.assign(
                    edges.begin() + static_cast<std::ptrdiff_t>(s.first_edge),
                    edges.begin() + static_cast<std::ptrdiff_t>(s.end_edge));
                for (std::size_t i : s.outside)
                    own.outside.push_back({slot_[i], c.time[i]});
            }
        },
        [&](const ViewTile &tile) {
            // The source's blocks, access runs and edges, moved; its
            // accesses of older blocks lengthen their runs.
            // Each is copied whole, then moved: tight loops the
            // compiler can vectorize, unlike a push_back per entry.
            const TileSource &s = sources_[tile.source];
            const SourceEntries &own = source_entries[tile.source];
            const trace::EventShift &shift = tile.shift;
            tile_edges.push_back(edges.size());
            const std::uint32_t opened = s.end_slot - s.first_slot;
            if (opened != 0) {
                t->block_tiles_.push_back(
                    {s.first_slot, tile.first_slot, opened});
                const std::uint32_t from = own.blocks.front().first_access;
                const std::size_t first = blocks.size();
                blocks.insert(blocks.end(), own.blocks.begin(),
                              own.blocks.end());
                for (std::size_t b = first; b < blocks.size(); ++b) {
                    blocks[b].block += shift.block;
                    blocks[b].alloc_time += shift.time;
                    blocks[b].free_time += shift.time;
                    blocks[b].alloc_iteration = shift.iteration;
                    blocks[b].first_access += next - from;
                }
                const BlockLifetime &last = own.blocks.back();
                const std::uint32_t length =
                    last.first_access + last.access_count - from;
                for (std::uint32_t j = 0; j < length; ++j)
                    accesses[next + j] = accesses[from + j] + shift.time;
                next += length;
            }
            const std::size_t first = edges.size();
            edges.insert(edges.end(), own.edges.begin(), own.edges.end());
            for (std::size_t e = first; e < edges.size(); ++e)
                edges[e].t += shift.time;
            for (const auto &[slot, time] : own.outside)
                accesses[at[slot]++] = time + shift.time;
        });

    // The sources' cores are sorted; so are their copies. Sort the
    // rest: the walked runs and the ties at each tile's ends.
    std::size_t edge = 0;
    for (std::size_t k = 0; k < tiles_.size(); ++k) {
        const TileSource &s = sources_[tiles_[k].source];
        const auto core = core_of(s);
        if (core.first == core.second)
            continue;
        const std::size_t moved = tile_edges[k] - s.first_edge;
        sort_runs(edge, core.first + moved);
        edge = core.second + moved;
    }
    sort_runs(edge, edges.size());

    // Prefix sums answer live_bytes_at/peak in O(log n)/O(1).
    reserve_huge(t->prefix_, edges.size() + 1);
    std::int64_t cur = 0;
    std::int64_t best = -1;
    TimeNs best_t = t->start_;
    for (const auto &e : edges) {
        cur += e.delta;
        t->prefix_.push_back(cur);
        if (cur > best) {
            best = cur;
            best_t = e.t;
        }
    }
    t->peak_time_ = best_t;
    t->peak_bytes_ = best > 0 ? static_cast<std::size_t>(best) : 0;
    return t;
}

const Timeline &
TraceView::timeline() const
{
    timeline_once_.call([&] {
        timeline_ = build_timeline();
        timeline_builds_.fetch_add(1, std::memory_order_relaxed);
        count_events(1);
    });
    // A build that throws (inconsistent trace) propagates out of
    // the once-call without satisfying it, so the next caller
    // retries; reaching here guarantees the slot is filled.
    return *timeline_;
}

const ProducerIndex &
TraceView::producers() const
{
    producers_once_.call([&] {
        producers_ = std::make_unique<const ProducerIndex>(
            index_producers(*this));
        producer_builds_.fetch_add(1, std::memory_order_relaxed);
        // Two passes over the events: op spans, then the writes.
        count_events(2);
    });
    return *producers_;
}

const IterationPattern &
TraceView::iteration_pattern() const
{
    pattern_once_.call([&] {
        pattern_ = std::make_unique<const IterationPattern>(
            detect_iteration_pattern(*this));
        pattern_builds_.fetch_add(1, std::memory_order_relaxed);
        count_events(1);
    });
    return *pattern_;
}

TraceViewStats
TraceView::build_stats() const
{
    TraceViewStats s;
    s.timeline_builds = timeline_builds_.load(std::memory_order_relaxed);
    s.producer_builds = producer_builds_.load(std::memory_order_relaxed);
    s.pattern_builds = pattern_builds_.load(std::memory_order_relaxed);
    s.events_walked = events_walked_.load(std::memory_order_relaxed);
    s.events_tiled = events_tiled_.load(std::memory_order_relaxed);
    return s;
}

}  // namespace analysis
}  // namespace pinpoint
