#include "analysis/trace_view.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
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

TraceView::TraceView(const trace::TraceRecorder &recorder)
    : columns_(recorder.share()), op_names_(recorder.op_names())
{
    freeze();
    events_walked_.fetch_add(size(), std::memory_order_relaxed);
}

void
TraceView::freeze()
{
    const std::size_t n = size();
    PP_CHECK(n <= std::numeric_limits<std::uint32_t>::max(),
             "trace of " << n << " events exceeds the slot column");
    const std::vector<BlockId> &block = columns_->block;
    const std::vector<trace::EventKind> &kind = columns_->kind;
    // The trace's one BlockId lookup: id → its open chain's slot.
    // A free closes the chain, so the table holds only live ids.
    FlatTable<BlockId, std::uint32_t> chain_of;
    std::uint32_t slots = 0;
    reserve_huge(slot_, n);
    slot_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        ++kind_count_[static_cast<std::size_t>(kind[i])];
        const auto entry = chain_of.try_emplace(block[i]);
        if (entry.second)
            entry.first = slots++;
        slot_[i] = entry.first;
        if (kind[i] == trace::EventKind::kFree)
            chain_of.erase(block[i]);
    }
    slot_count_ = slots;
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
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t slot = slot_[i];
        const bool open = slot < blocks.size();
        switch (c.kind[i]) {
          case trace::EventKind::kMalloc: {
            PP_CHECK(!open,
                     "malloc of already-live block " << c.block[i]);
            BlockLifetime b;
            b.block = c.block[i];
            b.ptr = c.ptr[i];
            b.size = c.size[i];
            b.category = c.category[i];
            b.tensor = c.tensor[i];
            b.alloc_iteration = c.iteration[i];
            b.alloc_time = c.time[i];
            edges.push_back(
                {c.time[i], static_cast<std::int64_t>(b.size)});
            blocks.push_back(b);
            break;
          }
          case trace::EventKind::kFree: {
            PP_CHECK(open, "free of unknown block " << c.block[i]);
            BlockLifetime &b = blocks[slot];
            b.free_time = c.time[i];
            b.freed = true;
            edges.push_back(
                {c.time[i], -static_cast<std::int64_t>(b.size)});
            break;
          }
          case trace::EventKind::kRead:
          case trace::EventKind::kWrite:
            PP_CHECK(open,
                     "access to unallocated block " << c.block[i]);
            ++blocks[slot].access_count;
            break;
        }
    }

    // Access lists: one flat array, block after block, filled in
    // event order so each block's run is time-ordered.
    std::vector<std::size_t> cursor(blocks.size());
    std::size_t total = 0;
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        blocks[b].first_access = total;
        cursor[b] = total;
        total += blocks[b].access_count;
    }
    reserve_huge(t->accesses_, total);
    t->accesses_.resize(total);
    for (std::size_t i = 0; i < n; ++i) {
        if (c.kind[i] == trace::EventKind::kRead ||
            c.kind[i] == trace::EventKind::kWrite)
            t->accesses_[cursor[slot_[i]]++] = c.time[i];
    }

    for (std::size_t lo = 0; lo < edges.size();) {
        std::size_t hi = lo + 1;
        while (hi < edges.size() && edges[hi].t == edges[lo].t)
            ++hi;
        PP_CHECK(hi == edges.size() || edges[hi].t > edges[lo].t,
                 "trace events out of time order at " << edges[hi].t);
        if (hi - lo > 1)
            std::sort(edges.begin() + static_cast<std::ptrdiff_t>(lo),
                      edges.begin() + static_cast<std::ptrdiff_t>(hi),
                      edge_before);
        lo = hi;
    }

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
        events_walked_.fetch_add(size(), std::memory_order_relaxed);
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
        // Two passes over every event: op spans, then the writes.
        events_walked_.fetch_add(2 * size(), std::memory_order_relaxed);
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
        events_walked_.fetch_add(size(), std::memory_order_relaxed);
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
    return s;
}

}  // namespace analysis
}  // namespace pinpoint
