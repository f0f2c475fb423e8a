/**
 * @file
 * analysis::TraceView — one immutable snapshot of a recorded trace,
 * shared by every downstream analysis.
 *
 * The paper's whole method is "record one memory-event trace, then
 * derive every characterization from it". A TraceView is that trace
 * frozen once per run: the recorder's columnar (SoA) event store,
 * shared rather than copied, plus every expensive derived index —
 * the block Timeline, the recompute producer index, the iteration
 * pattern — each built lazily, exactly once, behind a core
 * OnceFlag, and shared by reference with the analysis, swap,
 * relief, runtime, and api layers. Before this class existed the
 * per-block index was rebuilt from scratch at five independent
 * sites on a single `relief` run; now the invariant is *one build
 * per run*, and build_stats() makes it checkable from benches and
 * tests.
 *
 * Slots. The freeze gives every event a `slot`: the dense index of
 * its block's chain. A chain opens at a block id's first event and
 * closes at that id's free, so an id reused after its free gets a
 * new slot, a double malloc stays in its open chain, and a free of
 * an unknown id or an access to an unallocated one opens a chain of
 * its own. Slots number chains in the order they open, so on a
 * trace whose Timeline builds, slot s is the block
 * `timeline().blocks()[s]`. The freeze is the trace's only BlockId
 * lookup: every per-block analysis (Timeline, ATI chains,
 * breakdown, occupancy series, producer index) keeps its state in a
 * flat vector indexed by slot.
 *
 * Tiles. A trace the engine tiled lists the runs of events that copy
 * an earlier run, shifted (trace::Tile). The freeze walks the trace
 * but not those copies: it checks that each copy opens its chains as
 * its source did — every chain the source opens closes inside it,
 * the chains it only reads and writes are open at the copy's start
 * on the same slots, and no moved id is live there — and then gives
 * the copy's events their slots by shift. Each index then walks only
 * what the freeze walked and emits a tile's entries from its
 * source's (for_each_run), with the bytes a walk of every event
 * would give. A tile that fails a check is walked.
 *
 * Invariants:
 *   - A TraceView never mutates after construction; every accessor
 *     is const and safe to call from many threads concurrently.
 *   - The view owns its storage: it holds the TraceRecorder's
 *     event columns by shared_ptr, and the recorder copies them
 *     before any later record(), so the recorder may go on
 *     recording, be cleared or be destroyed afterwards.
 *   - Each sub-index is built at most once (OnceFlag);
 *     concurrent first accessors share one computation.
 *   - TraceView is neither copyable nor movable — share it by
 *     reference (or hold it behind a shared_ptr, as
 *     runtime::SessionResult::view() does).
 */
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/iteration.h"
#include "analysis/producers.h"
#include "analysis/timeline.h"
#include "core/once.h"
#include "core/types.h"
#include "trace/event.h"
#include "trace/recorder.h"

namespace pinpoint {
namespace analysis {

/**
 * Build/work counters of one TraceView — the perf invariant made
 * observable. A consumer stack that shares the view correctly shows
 * at most one build per sub-index no matter how many analyses ran.
 */
struct TraceViewStats {
    /** Timeline constructions (0 before first use, then 1). */
    std::size_t timeline_builds = 0;
    /** Producer-index constructions. */
    std::size_t producer_builds = 0;
    /** Iteration-pattern detections. */
    std::size_t pattern_builds = 0;
    /**
     * Events scanned across the freeze and every sub-index build:
     * each contributes one walk of the events it does not emit by
     * shift (the producer index two).
     */
    std::size_t events_walked = 0;
    /**
     * Events whose entries the freeze and the sub-index builds
     * emitted by shift from a tile's source instead of walking
     * them; with events_walked, the walks every build would make
     * without tiles.
     */
    std::size_t events_tiled = 0;

    /** @return total sub-index builds. */
    std::size_t index_builds() const
    {
        return timeline_builds + producer_builds + pattern_builds;
    }
};

/**
 * A run of events whose index entries are its source's, shifted: a
 * trace::Tile the freeze proved repeats its source chain for chain.
 */
struct ViewTile {
    /** Its events, [begin, end). */
    std::size_t begin = 0;
    std::size_t end = 0;
    /** Its source's index in TraceView::tile_sources(). */
    std::size_t source = 0;
    trace::EventShift shift;
    /**
     * The slot of the first chain it opens: its source's first_slot
     * moves here, and a chain opened before the source keeps its
     * slot.
     */
    std::uint32_t first_slot = 0;
};

/**
 * A walked run of events that ViewTiles copy. Every chain it opens
 * closes inside it, and it only reads and writes the chains open
 * before it, so the chains open after it are those open before it.
 */
struct TileSource {
    /** Its events, [begin, end). */
    std::size_t begin = 0;
    std::size_t end = 0;
    /** The chains it opens: slots [first_slot, end_slot). */
    std::uint32_t first_slot = 0;
    std::uint32_t end_slot = 0;
    /**
     * Mallocs and frees before it, and before its end: its
     * occupancy edges' places in the trace's edge order.
     */
    std::size_t first_edge = 0;
    std::size_t end_edge = 0;
    /** Its events per kind, indexed by EventKind. */
    std::array<std::size_t, trace::kNumEventKinds> kinds{};
    /**
     * Its reads and writes of chains opened before it, by event
     * index, in order: each tile repeats them on the same slots.
     */
    std::vector<std::size_t> outside;
};

/**
 * Immutable, cheaply-shareable snapshot of one recorded trace with
 * lazily-built, cached sub-indices. See the file comment for the
 * sharing contract.
 */
class TraceView
{
  public:
    /**
     * Freezes @p recorder's events: shares its event columns and
     * builds the slot column and the per-kind counts. O(n); the
     * recorder is not retained.
     */
    explicit TraceView(const trace::TraceRecorder &recorder);

    TraceView(const TraceView &) = delete;
    TraceView &operator=(const TraceView &) = delete;

    /** @return number of events in the snapshot. */
    std::size_t size() const { return columns_->time.size(); }

    /** @return true when the snapshot holds no events. */
    bool empty() const { return columns_->time.empty(); }

    /**
     * @return the frozen event columns, shared with the recorder
     * they came from (see the file comment).
     */
    const trace::EventColumns &columns() const { return *columns_; }

    // --- columnar event access ------------------------------------

    TimeNs time(std::size_t i) const { return columns_->time[i]; }
    trace::EventKind kind(std::size_t i) const
    {
        return columns_->kind[i];
    }
    BlockId block(std::size_t i) const { return columns_->block[i]; }
    DevPtr ptr(std::size_t i) const { return columns_->ptr[i]; }
    std::size_t event_size(std::size_t i) const
    {
        return columns_->size[i];
    }
    TensorId tensor(std::size_t i) const { return columns_->tensor[i]; }
    Category category(std::size_t i) const
    {
        return columns_->category[i];
    }
    std::uint32_t iteration(std::size_t i) const
    {
        return columns_->iteration[i];
    }
    std::int32_t op_index(std::size_t i) const
    {
        return columns_->op_index[i];
    }

    /** @return the slot of event @p i (see the file comment). */
    std::size_t slot(std::size_t i) const { return slot_[i]; }

    /** @return the number of slots: one per block-id chain. */
    std::size_t slot_count() const { return slot_count_; }

    // --- tiles (see the file comment) -----------------------------

    /** @return the runs indexed by shift, in trace order. */
    const std::vector<ViewTile> &tiles() const { return tiles_; }

    /** @return the runs the tiles copy, in trace order. */
    const std::vector<TileSource> &tile_sources() const
    {
        return sources_;
    }

    /** @return the slot in @p tile of its source's slot @p slot. */
    std::uint32_t
    tile_slot(const ViewTile &tile, std::uint32_t slot) const
    {
        const std::uint32_t first = sources_[tile.source].first_slot;
        return slot < first ? slot : slot - first + tile.first_slot;
    }

    /** The source argument of a walked run that no tile copies. */
    static constexpr std::size_t kNoSource = ~std::size_t{0};

    /**
     * Visits the events in order as an index builds from them:
     * @p walk(begin, end, source) for each run to walk, where
     * `source` is the run's index in tile_sources() or kNoSource,
     * and @p emit(tile) for each tile. A source is walked, whole,
     * before its first tile. An untiled trace is one walk.
     */
    template <typename Walk, typename Emit>
    void
    for_each_run(Walk &&walk, Emit &&emit) const
    {
        std::size_t at = 0;
        std::size_t next = 0;
        const auto walk_to = [&](std::size_t to) {
            for (; next < sources_.size() && sources_[next].begin < to;
                 ++next) {
                const TileSource &s = sources_[next];
                if (at < s.begin)
                    walk(at, s.begin, kNoSource);
                walk(s.begin, s.end, next);
                at = s.end;
            }
            if (at < to)
                walk(at, to, kNoSource);
        };
        for (const ViewTile &tile : tiles_) {
            walk_to(tile.begin);
            emit(tile);
            at = tile.end;
        }
        walk_to(size());
    }

    /** @return the interned op name id of event @p i. */
    trace::OpId op_id(std::size_t i) const { return columns_->op[i]; }

    /** @return the op name of event @p i. */
    const std::string &op(std::size_t i) const
    {
        return op_names_[columns_->op[i]];
    }

    /** @return the name of op id @p id (as returned by op_id). */
    const std::string &op_name(trace::OpId id) const
    {
        return op_names_[id];
    }

    /** @return the size of the op name table (ids 0 .. op_count()-1). */
    std::size_t op_count() const { return op_names_.size(); }

    // --- per-kind counts ------------------------------------------
    // Replaces TraceRecorder::count (O(n) rescan per call); a walk
    // over one kind reads the kind column.

    /** @return count of events of kind @p k. O(1). */
    std::size_t count(trace::EventKind k) const
    {
        return kind_count_[static_cast<std::size_t>(k)];
    }

    // --- lazy cached sub-indices ----------------------------------

    /**
     * @return the per-block Timeline. Built on first access (the
     * one Timeline construction site in the codebase), then shared.
     * @throws Error on inconsistent traces (access to unallocated
     * blocks, double mallocs) — on every call, the failed build is
     * retried so the error is not sticky-silent.
     */
    const Timeline &timeline() const;

    /** @return the recompute producer index, built once. */
    const ProducerIndex &producers() const;

    /** @return the iterative-pattern verdict, built once. */
    const IterationPattern &iteration_pattern() const;

    /** @return a snapshot of the build/work counters. */
    TraceViewStats build_stats() const;

  private:
    /**
     * Fills slot_, slot_count_, kind_count_, tiles_ and sources_:
     * the freeze's walk.
     */
    void freeze();

    /** Counts a build's walked and tiled events (build_stats()). */
    void count_events(std::size_t per_event) const;

    std::unique_ptr<const Timeline> build_timeline() const;

    /** The recorder's event columns, shared, never written. */
    std::shared_ptr<const trace::EventColumns> columns_;
    /** Per-event block-id chain (see slot()). */
    std::vector<std::uint32_t> slot_;
    std::size_t slot_count_ = 0;
    /** The recorder's name table, indexed by OpId. */
    std::vector<std::string> op_names_;
    /** Events per kind, indexed by EventKind. */
    std::array<std::size_t, trace::kNumEventKinds> kind_count_{};
    std::vector<ViewTile> tiles_;
    std::vector<TileSource> sources_;
    /** Events in tiles_. */
    std::size_t tiled_events_ = 0;

    // Lazy sub-indices. A failed build (inconsistent trace) leaves
    // the slot empty and the accessor rethrows on the next call.
    mutable OnceFlag timeline_once_;
    mutable std::unique_ptr<const Timeline> timeline_;
    mutable OnceFlag producers_once_;
    mutable std::unique_ptr<const ProducerIndex> producers_;
    mutable OnceFlag pattern_once_;
    mutable std::unique_ptr<const IterationPattern> pattern_;

    mutable std::atomic<std::size_t> timeline_builds_{0};
    mutable std::atomic<std::size_t> producer_builds_{0};
    mutable std::atomic<std::size_t> pattern_builds_{0};
    mutable std::atomic<std::size_t> events_walked_{0};
    mutable std::atomic<std::size_t> events_tiled_{0};
};

}  // namespace analysis
}  // namespace pinpoint

