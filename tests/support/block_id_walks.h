/**
 * @file
 * Test-only reference walks: the per-block analyses computed the
 * plain way, with per-block state in hash maps keyed by BlockId.
 * Library code keeps that state in flat vectors indexed by the
 * TraceView's slot column; tests check it against these, errors
 * included.
 */
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/ati.h"
#include "analysis/breakdown.h"
#include "analysis/series.h"
#include "analysis/timeline.h"
#include "analysis/trace_view.h"
#include "core/check.h"
#include "core/types.h"
#include "trace/event.h"

namespace pinpoint {
namespace test_support {

/** One block's life, with its accesses in a list of its own. */
struct RefLifetime {
    BlockId block = kInvalidBlock;
    DevPtr ptr = kNullDevPtr;
    std::size_t size = 0;
    Category category = Category::kIntermediate;
    TensorId tensor = kInvalidTensor;
    std::uint32_t alloc_iteration = 0;
    TimeNs alloc_time = 0;
    TimeNs free_time = 0;
    bool freed = false;
    std::vector<TimeNs> accesses;
};

/** What analysis::Timeline derives from a trace. */
struct RefTimeline {
    std::vector<RefLifetime> blocks;
    std::vector<analysis::OccupancyEdge> edges;
    TimeNs peak_time = 0;
    std::size_t peak_bytes = 0;
};

/**
 * @return the Timeline of @p view, built with a BlockId → open
 * block map. @throws Error on the traces TraceView::timeline()
 * rejects, with the same text.
 */
inline RefTimeline
reference_timeline(const analysis::TraceView &view)
{
    RefTimeline t;
    std::unordered_map<BlockId, std::size_t> open;  // block → index
    for (std::size_t i = 0; i < view.size(); ++i) {
        const BlockId id = view.block(i);
        switch (view.kind(i)) {
          case trace::EventKind::kMalloc: {
            PP_CHECK(!open.count(id),
                     "malloc of already-live block " << id);
            RefLifetime b;
            b.block = id;
            b.ptr = view.ptr(i);
            b.size = view.event_size(i);
            b.category = view.category(i);
            b.tensor = view.tensor(i);
            b.alloc_iteration = view.iteration(i);
            b.alloc_time = view.time(i);
            open.emplace(id, t.blocks.size());
            t.edges.push_back(
                {view.time(i), static_cast<std::int64_t>(b.size)});
            t.blocks.push_back(std::move(b));
            break;
          }
          case trace::EventKind::kFree: {
            auto it = open.find(id);
            PP_CHECK(it != open.end(), "free of unknown block " << id);
            RefLifetime &b = t.blocks[it->second];
            b.free_time = view.time(i);
            b.freed = true;
            t.edges.push_back(
                {view.time(i), -static_cast<std::int64_t>(b.size)});
            open.erase(it);
            break;
          }
          case trace::EventKind::kRead:
          case trace::EventKind::kWrite: {
            auto it = open.find(id);
            PP_CHECK(it != open.end(),
                     "access to unallocated block " << id);
            t.blocks[it->second].accesses.push_back(view.time(i));
            break;
          }
        }
    }
    std::stable_sort(t.edges.begin(), t.edges.end(),
                     analysis::edge_before);
    std::int64_t cur = 0;
    std::int64_t best = -1;
    t.peak_time = view.empty() ? 0 : view.time(0);
    for (const auto &e : t.edges) {
        cur += e.delta;
        if (cur > best) {
            best = cur;
            t.peak_time = e.t;
        }
    }
    t.peak_bytes = best > 0 ? static_cast<std::size_t>(best) : 0;
    return t;
}

/** @return the ATIs of @p view, chained by a BlockId → time map. */
inline std::vector<analysis::AtiSample>
reference_atis(const analysis::TraceView &view,
               const analysis::AtiOptions &options = {})
{
    std::vector<analysis::AtiSample> out;
    std::unordered_map<BlockId, TimeNs> last;
    for (std::size_t i = 0; i < view.size(); ++i) {
        const trace::EventKind kind = view.kind(i);
        const BlockId block = view.block(i);
        const bool is_access =
            kind == trace::EventKind::kRead ||
            kind == trace::EventKind::kWrite ||
            (options.include_alloc_free &&
             (kind == trace::EventKind::kMalloc ||
              kind == trace::EventKind::kFree));
        if (kind == trace::EventKind::kFree &&
            !options.include_alloc_free)
            last.erase(block);
        if (!is_access)
            continue;
        auto it = last.find(block);
        if (it != last.end()) {
            analysis::AtiSample s;
            s.behavior_index = i;
            s.block = block;
            s.size = view.event_size(i);
            s.interval = view.time(i) - it->second;
            s.at_time = view.time(i);
            s.category = view.category(i);
            s.op = view.op_id(i);
            out.push_back(s);
        }
        last[block] = view.time(i);
        if (kind == trace::EventKind::kFree)
            last.erase(block);
    }
    return out;
}

/**
 * @return the occupation breakdown of @p view, with live blocks in
 * a BlockId map. @throws Error as analysis::occupation_breakdown.
 */
inline analysis::BreakdownResult
reference_breakdown(const analysis::TraceView &view)
{
    analysis::BreakdownResult r;
    std::array<std::size_t, kNumCategories> current{};
    std::size_t total = 0;
    std::size_t peak = 0;
    std::unordered_map<BlockId, std::pair<Category, std::size_t>> live;
    for (std::size_t i = 0; i < view.size(); ++i) {
        if (view.kind(i) == trace::EventKind::kMalloc) {
            PP_CHECK(!live.count(view.block(i)),
                     "malloc of already-live block " << view.block(i));
            const Category category = view.category(i);
            const std::size_t size = view.event_size(i);
            live[view.block(i)] = {category, size};
            current[static_cast<int>(category)] += size;
            total += size;
            auto &peak_cat =
                r.peak_per_category[static_cast<int>(category)];
            peak_cat = std::max(peak_cat,
                                current[static_cast<int>(category)]);
            if (total > peak) {
                peak = total;
                r.peak_time = view.time(i);
                r.at_peak = current;
            }
        } else if (view.kind(i) == trace::EventKind::kFree) {
            auto it = live.find(view.block(i));
            PP_CHECK(it != live.end(),
                     "free of unknown block " << view.block(i));
            const auto [cat, size] = it->second;
            current[static_cast<int>(cat)] -= size;
            total -= size;
            live.erase(it);
        }
    }
    return r;
}

/**
 * @return the unthinned occupancy series of @p view, with live
 * blocks in a BlockId map. @throws Error as
 * analysis::occupancy_series.
 */
inline std::vector<analysis::OccupancyPoint>
reference_series(const analysis::TraceView &view)
{
    std::vector<analysis::OccupancyPoint> series;
    analysis::OccupancyPoint cur;
    std::unordered_map<BlockId, std::pair<Category, std::size_t>> live;
    for (std::size_t i = 0; i < view.size(); ++i) {
        if (view.kind(i) == trace::EventKind::kMalloc) {
            PP_CHECK(!live.count(view.block(i)),
                     "malloc of already-live block " << view.block(i));
            live[view.block(i)] = {view.category(i),
                                   view.event_size(i)};
            cur.bytes[static_cast<int>(view.category(i))] +=
                view.event_size(i);
        } else if (view.kind(i) == trace::EventKind::kFree) {
            auto it = live.find(view.block(i));
            PP_CHECK(it != live.end(),
                     "free of unknown block " << view.block(i));
            cur.bytes[static_cast<int>(it->second.first)] -=
                it->second.second;
            live.erase(it);
        } else {
            continue;
        }
        cur.time = view.time(i);
        if (!series.empty() && series.back().time == cur.time)
            series.back() = cur;
        else
            series.push_back(cur);
    }
    return series;
}

}  // namespace test_support
}  // namespace pinpoint
