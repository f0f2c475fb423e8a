/** @file Unit tests for Timeline and Gantt rendering. */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <random>
#include <tuple>
#include <vector>

#include "analysis/gantt.h"
#include "analysis/timeline.h"
#include "analysis/trace_view.h"
#include "core/check.h"
#include "support/occupancy_oracle.h"
#include "support/random_trace.h"

namespace pinpoint {
namespace analysis {
namespace {

trace::MemoryEvent
ev(TimeNs t, trace::EventKind kind, BlockId block, DevPtr ptr,
   std::size_t size)
{
    trace::MemoryEvent e;
    e.time = t;
    e.kind = kind;
    e.block = block;
    e.ptr = ptr;
    e.size = size;
    return e;
}

trace::TraceRecorder
two_block_trace()
{
    trace::TraceRecorder r;
    r.record(ev(0, trace::EventKind::kMalloc, 1, 0x1000, 512));
    r.record(ev(10, trace::EventKind::kWrite, 1, 0x1000, 512));
    r.record(ev(20, trace::EventKind::kMalloc, 2, 0x2000, 1024));
    r.record(ev(30, trace::EventKind::kRead, 1, 0x1000, 512));
    r.record(ev(40, trace::EventKind::kFree, 1, 0x1000, 512));
    r.record(ev(90, trace::EventKind::kWrite, 2, 0x2000, 1024));
    return r;
}

TEST(Timeline, ReconstructsLifetimes)
{
    TraceView view(two_block_trace());
    const Timeline &t = view.timeline();
    ASSERT_EQ(t.blocks().size(), 2u);
    const auto &b1 = t.blocks()[0];
    EXPECT_EQ(b1.block, 1u);
    EXPECT_EQ(b1.alloc_time, 0u);
    EXPECT_TRUE(b1.freed);
    EXPECT_EQ(b1.free_time, 40u);
    const AccessList accesses = t.accesses(b1);
    EXPECT_EQ(std::vector<TimeNs>(accesses.begin(), accesses.end()),
              (std::vector<TimeNs>{10, 30}));
    EXPECT_EQ(t.accesses(t.blocks()[1]).size(), 1u);
    const auto &b2 = t.blocks()[1];
    EXPECT_FALSE(b2.freed);
    EXPECT_EQ(b2.lifetime(t.end()), 90u - 20u);
    EXPECT_EQ(t.start(), 0u);
    EXPECT_EQ(t.end(), 90u);
}

TEST(Timeline, LiveAtRespectsHalfOpenLifetime)
{
    TraceView view(two_block_trace());
    const Timeline &t = view.timeline();
    EXPECT_EQ(t.live_at(0).size(), 1u);
    EXPECT_EQ(t.live_at(25).size(), 2u);
    EXPECT_EQ(t.live_at(40).size(), 1u)
        << "a block is dead at its free instant";
    EXPECT_EQ(t.live_bytes_at(25), 512u + 1024u);
    EXPECT_EQ(t.live_bytes_at(50), 1024u);
}

TEST(Timeline, PeakTimeFindsMaxOccupancy)
{
    TraceView view(two_block_trace());
    const Timeline &t = view.timeline();
    const TimeNs peak = t.peak_time();
    EXPECT_EQ(peak, 20u);
    EXPECT_EQ(t.live_bytes_at(peak), 1536u);
}

TEST(Timeline, GapStatsMeasureHoles)
{
    trace::TraceRecorder r;
    r.record(ev(0, trace::EventKind::kMalloc, 1, 0x1000, 0x100));
    r.record(ev(0, trace::EventKind::kMalloc, 2, 0x1200, 0x100));
    TraceView view(r);
    const Timeline &t = view.timeline();
    const auto g = t.gaps_at(0);
    EXPECT_EQ(g.live_blocks, 2u);
    EXPECT_EQ(g.live_bytes, 0x200u);
    EXPECT_EQ(g.span_bytes, 0x300u);
    EXPECT_EQ(g.gap_bytes, 0x100u);
    EXPECT_NEAR(g.gap_fraction(), 1.0 / 3.0, 1e-12);
}

TEST(Timeline, GapStatsEmptyWhenNothingLive)
{
    TraceView view{trace::TraceRecorder()};
    const Timeline &t = view.timeline();
    const auto g = t.gaps_at(5);
    EXPECT_EQ(g.live_blocks, 0u);
    EXPECT_DOUBLE_EQ(g.gap_fraction(), 0.0);
}

TEST(Timeline, RejectsInconsistentTraces)
{
    trace::TraceRecorder double_malloc;
    double_malloc.record(ev(0, trace::EventKind::kMalloc, 1, 0, 512));
    double_malloc.record(ev(1, trace::EventKind::kMalloc, 1, 0, 512));
    EXPECT_THROW(TraceView(double_malloc).timeline(), Error);

    trace::TraceRecorder stray_free;
    stray_free.record(ev(0, trace::EventKind::kFree, 9, 0, 512));
    EXPECT_THROW(TraceView(stray_free).timeline(), Error);

    trace::TraceRecorder stray_access;
    stray_access.record(ev(0, trace::EventKind::kRead, 9, 0, 512));
    EXPECT_THROW(TraceView(stray_access).timeline(), Error);
}

/**
 * A seeded random recorder trace with many shared timestamps: the
 * clock advances on about one event in three, and sizes come from a
 * short list, so frees and mallocs of equal size tie on (t, delta).
 * With @p shuffled_ids, block ids are handed out in a random order
 * instead of increasing, as no engine allocator does.
 */
trace::TraceRecorder
random_trace(std::uint64_t seed, bool shuffled_ids)
{
    std::mt19937_64 rng(seed);
    const std::size_t sizes[] = {256, 512, 512, 1024, 4096};
    std::vector<BlockId> ids(400);
    std::iota(ids.begin(), ids.end(), BlockId{1});
    if (shuffled_ids)
        std::shuffle(ids.begin(), ids.end(), rng);
    std::size_t next = 0;
    std::vector<std::pair<BlockId, std::size_t>> live;
    trace::TraceRecorder r;
    TimeNs t = 5;
    for (int step = 0; step < 1500; ++step) {
        if (rng() % 3 == 0)
            t += 1 + rng() % 4;
        const auto roll = rng() % 10;
        if ((roll < 4 || live.empty()) && next < ids.size()) {
            const std::size_t size = sizes[rng() % 5];
            live.emplace_back(ids[next], size);
            r.record(ev(t, trace::EventKind::kMalloc, ids[next],
                        0x1000 * ids[next], size));
            ++next;
        } else if (roll < 7 && !live.empty()) {
            const std::size_t k = rng() % live.size();
            r.record(ev(t, trace::EventKind::kFree, live[k].first,
                        0x1000 * live[k].first, live[k].second));
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
        } else if (!live.empty()) {
            const auto &b = live[rng() % live.size()];
            r.record(ev(t, trace::EventKind::kRead, b.first,
                        0x1000 * b.first, b.second));
        }
    }
    return r;
}

TEST(Timeline, OccupancyProbesEqualAFullSort)
{
    // Hand-built ties: at t=10 a free, two mallocs and another free
    // share the instant, recorded in an order that is not sorted.
    trace::TraceRecorder r;
    r.record(ev(0, trace::EventKind::kMalloc, 1, 0x1000, 512));
    r.record(ev(0, trace::EventKind::kMalloc, 2, 0x2000, 256));
    r.record(ev(10, trace::EventKind::kMalloc, 3, 0x3000, 1024));
    r.record(ev(10, trace::EventKind::kFree, 1, 0x1000, 512));
    r.record(ev(10, trace::EventKind::kMalloc, 4, 0x4000, 256));
    r.record(ev(10, trace::EventKind::kFree, 2, 0x2000, 256));
    r.record(ev(20, trace::EventKind::kFree, 3, 0x3000, 1024));
    TraceView view(r);
    const Timeline &t = view.timeline();
    EXPECT_EQ(t.live_bytes_at(0), 768u);
    EXPECT_EQ(t.live_bytes_at(10), 1280u);
    EXPECT_EQ(t.live_bytes_at(20), 256u);
    EXPECT_EQ(t.peak_bytes(), 1280u);
    EXPECT_EQ(t.peak_time(), 10u);

    // The one-pass baseline answers every probe as the full sort of
    // the recorder's edges does.
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE(seed);
        const auto trace = random_trace(seed, seed % 2 == 0);
        TraceView random_view(trace);
        const Timeline &rt = random_view.timeline();
        const auto oracle = test_support::sorted_edges_oracle(trace);
        for (const OccupancyEdge &e : oracle)
            ASSERT_EQ(rt.live_bytes_at(e.t),
                      test_support::occupancy_at(oracle, e.t))
                << e.t;
        EXPECT_EQ(rt.peak_bytes(), test_support::peak_occupancy(oracle));
        EXPECT_EQ(rt.peak_with({}), rt.peak_bytes());
    }
}

TEST(Timeline, PeakWithMatchesTheFullSortOracle)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE(seed);
        const auto trace = random_trace(seed, false);
        TraceView view(trace);
        const Timeline &t = view.timeline();
        const auto baseline = test_support::sorted_edges_oracle(trace);
        ASSERT_FALSE(baseline.empty());
        std::mt19937_64 rng(seed * 7919);
        const std::int64_t sizes[] = {256, 512, 1024, 4096, 70000};

        auto oracle = [&](const std::vector<OccupancyEdge> &extra) {
            std::vector<OccupancyEdge> all = baseline;
            all.insert(all.end(), extra.begin(), extra.end());
            return test_support::peak_occupancy(std::move(all));
        };
        auto existing_time = [&] {
            return baseline[rng() % baseline.size()].t;
        };
        auto any_time = [&] {
            // Spans before start() and after end() too.
            const TimeNs lo = t.start() > 20 ? t.start() - 20 : 0;
            return lo + rng() % (t.end() - lo + 40);
        };

        // Empty extra: the trace's own peak.
        EXPECT_EQ(t.peak_with({}), oracle({}));
        EXPECT_EQ(t.peak_with({}), t.peak_bytes());

        for (int round = 0; round < 25; ++round) {
            SCOPED_TRACE(round);
            // All-negative: absence windows opened, never closed.
            std::vector<OccupancyEdge> negative;
            for (int k = 0; k < 1 + round % 7; ++k)
                negative.push_back(
                    {any_time(), -sizes[rng() % 5]});
            EXPECT_EQ(t.peak_with(negative), oracle(negative));

            // Windows whose edges tie existing edge times, with
            // deltas that tie existing deltas.
            std::vector<OccupancyEdge> ties;
            for (int k = 0; k < 1 + round % 5; ++k) {
                const TimeNs a = existing_time();
                const TimeNs b = existing_time();
                const std::int64_t size = sizes[rng() % 4];
                ties.push_back({std::min(a, b), -size});
                ties.push_back({std::max(a, b), size});
            }
            EXPECT_EQ(t.peak_with(ties), oracle(ties));

            // Mixed signs, times before start() and after end().
            std::vector<OccupancyEdge> mixed = {
                {0, sizes[rng() % 5]},
                {t.end() + 1 + rng() % 10, sizes[rng() % 5]},
                {t.end() + 100, -sizes[rng() % 5]}};
            for (int k = 0; k < round % 4; ++k)
                mixed.push_back({any_time(),
                                 (rng() % 2 ? 1 : -1) *
                                     sizes[rng() % 5]});
            EXPECT_EQ(t.peak_with(mixed), oracle(mixed));
        }
    }
}

TEST(Timeline, PeakWithMergesSortedRuns)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE(seed);
        const auto trace = random_trace(seed, false);
        TraceView view(trace);
        const Timeline &t = view.timeline();
        const auto baseline = test_support::sorted_edges_oracle(trace);
        std::mt19937_64 rng(seed * 104729);
        const std::int64_t sizes[] = {256, 512, 1024, 4096, 70000};
        auto oracle = [&](const std::vector<OccupancyEdge> &extra) {
            std::vector<OccupancyEdge> all = baseline;
            all.insert(all.end(), extra.begin(), extra.end());
            return test_support::peak_occupancy(std::move(all));
        };

        // A pool of edges in tie groups: each group shares one time
        // (an existing edge time half of the time) and mixes deltas
        // of both signs, so equal times carry different deltas.
        std::vector<OccupancyEdge> pool;
        for (int group = 0; group < 60; ++group) {
            const TimeNs at = rng() % 2
                                  ? baseline[rng() % baseline.size()].t
                                  : t.start() + rng() % (t.end() + 20);
            for (int k = 0; k < 1 + static_cast<int>(rng() % 4); ++k)
                pool.push_back({at, (rng() % 2 ? 1 : -1) *
                                        sizes[rng() % 5]});
        }

        for (std::size_t runs : {1u, 2u, 6u}) {
            SCOPED_TRACE(runs);
            // Each edge joins a random run; each run is sorted and
            // the runs are concatenated, so a tie group splits
            // across runs as often as it stays inside one.
            std::vector<std::vector<OccupancyEdge>> parts(runs);
            for (const OccupancyEdge &e : pool)
                parts[rng() % runs].push_back(e);
            std::vector<OccupancyEdge> extra;
            for (auto &part : parts) {
                std::sort(part.begin(), part.end(), edge_before);
                extra.insert(extra.end(), part.begin(), part.end());
            }
            std::size_t descents = 0;
            for (std::size_t i = 1; i < extra.size(); ++i)
                descents += edge_before(extra[i], extra[i - 1]) ? 1 : 0;
            EXPECT_LT(descents, runs);
            EXPECT_EQ(t.peak_with(extra), oracle(extra));
        }

        std::vector<OccupancyEdge> shuffled = pool;
        std::shuffle(shuffled.begin(), shuffled.end(), rng);
        EXPECT_EQ(t.peak_with(shuffled), oracle(shuffled));
    }
}

/**
 * Every block's access list against a re-walk of the recorder's raw
 * columns: a block id opens a chain on its first event after a free
 * (chains number in the order they open, as slots do), and each read
 * or write joins its chain's list in trace order. The lists lie
 * block after block in the one flat array.
 */
TEST(Timeline, AccessListsEqualARewalkOfTheColumns)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE(seed);
        // Ids come back after their free and times tie often.
        const trace::TraceRecorder trace = test_support::random_trace(
            seed, 200 * seed, {256, 512, 4096}, 2);
        TraceView view(trace);
        const trace::EventColumns &c = trace.columns();
        std::map<BlockId, std::size_t> open;
        std::vector<std::vector<TimeNs>> expected;
        for (std::size_t i = 0; i < c.time.size(); ++i) {
            auto chain = open.find(c.block[i]);
            if (chain == open.end()) {
                chain = open.emplace(c.block[i], expected.size()).first;
                expected.emplace_back();
            }
            if (c.kind[i] == trace::EventKind::kRead ||
                c.kind[i] == trace::EventKind::kWrite)
                expected[chain->second].push_back(c.time[i]);
            else if (c.kind[i] == trace::EventKind::kFree)
                open.erase(chain);
        }

        const Timeline &t = view.timeline();
        ASSERT_EQ(t.blocks().size(), expected.size());
        std::size_t next = 0;
        for (std::size_t s = 0; s < expected.size(); ++s) {
            SCOPED_TRACE(s);
            const BlockLifetime &b = t.blocks()[s];
            EXPECT_EQ(b.first_access, next);
            EXPECT_EQ(b.access_count, expected[s].size());
            next += b.access_count;
            const AccessList list = t.accesses(b);
            EXPECT_EQ(std::vector<TimeNs>(list.begin(), list.end()),
                      expected[s]);
        }
    }
}

TEST(Timeline, AccessGapsEqualASortedPerBlockWalk)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE(seed);
        // Shuffled ids, so (block, slot) order differs from slot order
        // among the many gaps that share a start.
        const auto trace = random_trace(seed, true);
        TraceView view(trace);
        for (std::size_t min_bytes : {std::size_t{0}, std::size_t{1024}}) {
            SCOPED_TRACE(min_bytes);
            // Oracle: each lifetime's reads straight from the recorder
            // (random traces never reuse an id), gaps taken per block
            // and fully sorted.
            std::map<BlockId, std::size_t> slot_of;
            std::vector<std::size_t> size_of;
            std::vector<std::vector<TimeNs>> reads;
            for (const auto &e : trace.events()) {
                if (e.kind == trace::EventKind::kMalloc) {
                    slot_of[e.block] = size_of.size();
                    size_of.push_back(e.size);
                    reads.emplace_back();
                } else if (e.kind == trace::EventKind::kRead) {
                    reads[slot_of.at(e.block)].push_back(e.time);
                }
            }
            // (start, block id, slot, end), sorted.
            std::vector<std::tuple<TimeNs, BlockId, std::size_t, TimeNs>>
                expected;
            for (const auto &[block, slot] : slot_of) {
                if (size_of[slot] < min_bytes)
                    continue;
                for (std::size_t i = 1; i < reads[slot].size(); ++i)
                    if (reads[slot][i] > reads[slot][i - 1])
                        expected.emplace_back(reads[slot][i - 1], block,
                                              slot, reads[slot][i]);
            }
            std::sort(expected.begin(), expected.end());
            const Timeline &t = view.timeline();
            const std::vector<AccessGap> gaps =
                access_gaps(view, min_bytes);
            ASSERT_EQ(gaps.size(), expected.size());
            ASSERT_FALSE(gaps.empty());
            for (std::size_t i = 0; i < gaps.size(); ++i) {
                SCOPED_TRACE(i);
                const auto &[start, block, slot, end] = expected[i];
                EXPECT_EQ(gaps[i].start, start);
                EXPECT_EQ(gaps[i].end, end);
                EXPECT_EQ(gaps[i].slot, slot);
                EXPECT_EQ(t.blocks()[gaps[i].slot].block, block);
            }
        }
    }
}

TEST(Gantt, RenderProducesOneLinePerBlock)
{
    TraceView view(two_block_trace());
    const Timeline &t = view.timeline();
    const std::string out = render_gantt(t, 24);
    // Header + 2 block rows.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
    EXPECT_NE(out.find('#'), std::string::npos);
}

TEST(Gantt, RenderRejectsAnEmptyWindow)
{
    trace::TraceRecorder r;
    r.record(ev(0, trace::EventKind::kMalloc, 1, 0x1000, 512));
    TraceView view(r);
    EXPECT_THROW(render_gantt(view.timeline(), 24), Error);
}

TEST(Gantt, MaxRowsKeepsLargestBlocks)
{
    trace::TraceRecorder r;
    for (BlockId i = 0; i < 10; ++i) {
        r.record(ev(i, trace::EventKind::kMalloc, i,
                    0x1000 * (i + 1), 512 * (i + 1)));
    }
    TraceView view(r);
    const Timeline &t = view.timeline();
    const std::string out = render_gantt(t, 3);
    EXPECT_NE(out.find("3 blocks"), std::string::npos);
    EXPECT_NE(out.find("5.0 KB"), std::string::npos)
        << "largest block (10*512) must be kept";
}

}  // namespace
}  // namespace analysis
}  // namespace pinpoint
