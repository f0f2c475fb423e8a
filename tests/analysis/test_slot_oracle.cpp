/**
 * @file
 * Oracle test of the slot-indexed analyses: on seeded random traces
 * that reuse block ids and include double mallocs, unknown frees and
 * accesses to unallocated blocks, the Timeline, ATI chains,
 * occupation breakdown and occupancy series must equal the
 * BlockId-keyed reference walks of support/block_id_walks.h, or
 * fail with the same pinpoint::Error text.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "analysis/ati.h"
#include "analysis/breakdown.h"
#include "analysis/series.h"
#include "analysis/timeline.h"
#include "analysis/trace_view.h"
#include "core/check.h"
#include "support/block_id_walks.h"
#include "support/occupancy_oracle.h"
#include "trace/event.h"
#include "trace/recorder.h"

namespace pinpoint {
namespace analysis {
namespace {

/**
 * A random trace over a small id pool, so ids are reused after their
 * free. With @p faults, about one event in twenty is a double
 * malloc, a free of a dead id or an access to a dead id.
 */
trace::TraceRecorder
random_trace(std::uint64_t seed, bool faults)
{
    std::mt19937_64 rng(seed);
    trace::TraceRecorder r;
    const std::vector<trace::OpId> ops = {
        r.intern(""), r.intern("conv.forward"), r.intern("fc.backward")};
    const std::size_t sizes[] = {512, 4096, 1 << 20, 3 << 20};
    // Dense ids plus a few far apart, as traces from other tools use.
    std::vector<BlockId> ids;
    for (BlockId id = 0; id < 12; ++id)
        ids.push_back(id);
    ids.push_back(BlockId{1} << 40);
    ids.push_back((BlockId{1} << 63) + 5);

    struct State {
        bool live = false;
        std::size_t size = 0;
        Category category = Category::kIntermediate;
    };
    std::vector<State> state(ids.size());
    TimeNs t = 0;
    for (int k = 0; k < 240; ++k) {
        t += rng() % 3;  // runs of equal timestamps
        const std::size_t which = rng() % ids.size();
        State &s = state[which];
        trace::MemoryEvent e;
        e.time = t;
        e.block = ids[which];
        e.ptr = 0x10000 * (which + 1);
        e.tensor = which;
        e.op = ops[rng() % ops.size()];
        e.op_index = static_cast<std::int32_t>(rng() % 5) - 1;
        e.iteration = static_cast<std::uint32_t>(rng() % 3);
        const bool fault = faults && rng() % 20 == 0;
        if (s.live != fault) {
            // A live block (or a dead one, as a fault) is accessed
            // or freed.
            const auto roll = rng() % 10;
            e.kind = roll < 3   ? trace::EventKind::kFree
                     : roll < 6 ? trace::EventKind::kRead
                                : trace::EventKind::kWrite;
            if (fault && rng() % 3 == 0)
                e.kind = trace::EventKind::kMalloc;  // double malloc
        } else {
            e.kind = trace::EventKind::kMalloc;
        }
        if (e.kind == trace::EventKind::kMalloc && !s.live) {
            s.size = sizes[rng() % 4];
            s.category = static_cast<Category>(rng() % kNumCategories);
        }
        e.size = s.size == 0 ? 512 : s.size;
        e.category = s.category;
        if (e.kind == trace::EventKind::kMalloc)
            s.live = true;
        else if (e.kind == trace::EventKind::kFree)
            s.live = false;
        r.record(e);
    }
    return r;
}

/**
 * @return the message of the Error @p f throws, or "" when it
 * returns. A PP_CHECK failure reads "file:line: check failed: cond —
 * message"; only the message is the analysis's to keep.
 */
template <typename F>
std::string
error_of(F f)
{
    try {
        f();
    } catch (const Error &e) {
        const std::string what = e.what();
        const std::string dash = " \u2014 ";
        const std::size_t at = what.rfind(dash);
        return at == std::string::npos ? what
                                       : what.substr(at + dash.size());
    }
    return "";
}

void
expect_equal_timelines(const TraceView &view)
{
    test_support::RefTimeline ref;
    const std::string ref_error =
        error_of([&] { ref = test_support::reference_timeline(view); });
    const Timeline *t = nullptr;
    const std::string error = error_of([&] { t = &view.timeline(); });
    ASSERT_EQ(error, ref_error);
    if (!t)
        return;
    ASSERT_EQ(t->blocks().size(), ref.blocks.size());
    for (std::size_t s = 0; s < ref.blocks.size(); ++s) {
        const BlockLifetime &b = t->blocks()[s];
        const test_support::RefLifetime &e = ref.blocks[s];
        EXPECT_EQ(b.block, e.block);
        EXPECT_EQ(b.ptr, e.ptr);
        EXPECT_EQ(b.size, e.size);
        EXPECT_EQ(b.category, e.category);
        EXPECT_EQ(b.tensor, e.tensor);
        EXPECT_EQ(b.alloc_iteration, e.alloc_iteration);
        EXPECT_EQ(b.alloc_time, e.alloc_time);
        EXPECT_EQ(b.freed, e.freed);
        EXPECT_EQ(b.free_time, e.free_time);
        const AccessList accesses = t->accesses(b);
        EXPECT_EQ(std::vector<TimeNs>(accesses.begin(), accesses.end()),
                  e.accesses);
    }
    for (const OccupancyEdge &e : ref.edges)
        EXPECT_EQ(t->live_bytes_at(e.t),
                  test_support::occupancy_at(ref.edges, e.t))
            << e.t;
    EXPECT_EQ(t->peak_time(), ref.peak_time);
    EXPECT_EQ(t->peak_bytes(), ref.peak_bytes);
    // On a trace whose Timeline builds, block s is slot s.
    for (std::size_t i = 0; i < view.size(); ++i)
        ASSERT_EQ(t->blocks()[view.slot(i)].block, view.block(i));
}

void
expect_equal_atis(const TraceView &view, bool include_alloc_free)
{
    AtiOptions options;
    options.include_alloc_free = include_alloc_free;
    const auto ref = test_support::reference_atis(view, options);
    const auto got = compute_atis(view, options);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(got[i].behavior_index, ref[i].behavior_index);
        EXPECT_EQ(got[i].block, ref[i].block);
        EXPECT_EQ(got[i].size, ref[i].size);
        EXPECT_EQ(got[i].interval, ref[i].interval);
        EXPECT_EQ(got[i].at_time, ref[i].at_time);
        EXPECT_EQ(got[i].category, ref[i].category);
        EXPECT_EQ(got[i].op, ref[i].op);
    }
}

void
expect_equal_breakdowns(const TraceView &view)
{
    BreakdownResult ref;
    const std::string ref_error = error_of(
        [&] { ref = test_support::reference_breakdown(view); });
    BreakdownResult got;
    const std::string error =
        error_of([&] { got = occupation_breakdown(view); });
    ASSERT_EQ(error, ref_error);
    if (!error.empty())
        return;
    EXPECT_EQ(got.peak_total(), ref.peak_total());
    EXPECT_EQ(got.peak_time, ref.peak_time);
    EXPECT_EQ(got.at_peak, ref.at_peak);
    EXPECT_EQ(got.peak_per_category, ref.peak_per_category);
}

void
expect_equal_series(const TraceView &view)
{
    std::vector<OccupancyPoint> ref;
    const std::string ref_error =
        error_of([&] { ref = test_support::reference_series(view); });
    std::vector<OccupancyPoint> got;
    const std::string error =
        error_of([&] { got = occupancy_series(view, 0); });
    ASSERT_EQ(error, ref_error);
    if (!error.empty())
        return;
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(got[i].time, ref[i].time);
        EXPECT_EQ(got[i].bytes, ref[i].bytes);
    }
}

TEST(SlotOracle, AnalysesMatchTheBlockIdWalks)
{
    std::size_t clean = 0;
    std::size_t failing = 0;
    for (std::uint64_t seed = 0; seed < 300; ++seed) {
        SCOPED_TRACE(seed);
        const TraceView view(random_trace(seed, seed % 2 == 1));
        expect_equal_timelines(view);
        expect_equal_atis(view, false);
        expect_equal_atis(view, true);
        expect_equal_breakdowns(view);
        expect_equal_series(view);
        if (error_of([&] { view.timeline(); }).empty())
            ++clean;
        else
            ++failing;
        if (HasFatalFailure())
            return;
    }
    // Both sides of the comparison are exercised.
    EXPECT_GT(clean, 100u);
    EXPECT_GT(failing, 50u);
}

TEST(SlotOracle, ReusedIdsOpenNewSlots)
{
    trace::TraceRecorder r;
    auto record = [&r](TimeNs t, trace::EventKind kind, BlockId id) {
        trace::MemoryEvent e;
        e.time = t;
        e.kind = kind;
        e.block = id;
        e.size = 512;
        r.record(e);
    };
    using K = trace::EventKind;
    record(0, K::kRead, 9);     // access to an unallocated block
    record(1, K::kMalloc, 9);   // stays in the chain the read opened
    record(2, K::kFree, 9);     // closes it
    record(3, K::kMalloc, 9);   // the reused id opens slot 1
    record(4, K::kMalloc, 9);   // a double malloc stays in slot 1
    record(5, K::kFree, 4);     // a free of an unknown id: slot 2
    record(6, K::kFree, 4);     // and again: slot 3
    const TraceView view(r);
    const std::vector<std::size_t> expected = {0, 0, 0, 1, 1, 2, 3};
    ASSERT_EQ(view.slot_count(), 4u);
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(view.slot(i), expected[i]) << "event " << i;
}

}  // namespace
}  // namespace analysis
}  // namespace pinpoint
