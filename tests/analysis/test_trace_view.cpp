/**
 * @file
 * analysis::TraceView: the one immutable trace snapshot every layer
 * shares. Covers the SoA freeze (columns equal the recorded
 * events), per-kind counts, sub-index laziness and
 * build-once behavior (build_stats), thread-safety under a
 * 16-thread hammer, and — the refactor's core promise — equality of
 * every refactored signature between a shared view and fresh
 * per-call views (what the pre-refactor recorder-based code
 * computed) across the model zoo.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/ati.h"
#include "analysis/breakdown.h"
#include "analysis/iteration.h"
#include "analysis/report.h"
#include "analysis/series.h"
#include "analysis/trace_view.h"
#include "core/check.h"
#include "core/types.h"
#include "nn/model_registry.h"
#include "relief/strategy_planner.h"
#include "runtime/session.h"
#include "support/occupancy_oracle.h"
#include "support/trace_counts.h"
#include "swap/planner.h"
#include "trace/csv.h"
#include "trace/event.h"
#include "trace/recorder.h"

namespace pinpoint {
namespace analysis {
namespace {

trace::MemoryEvent
ev(TimeNs t, trace::EventKind kind, BlockId block, std::size_t size,
   trace::OpId op = 0)
{
    trace::MemoryEvent e;
    e.time = t;
    e.kind = kind;
    e.block = block;
    e.size = size;
    e.op = op;
    return e;
}

trace::TraceRecorder
small_trace()
{
    trace::TraceRecorder r;
    const trace::OpId alloc = r.intern("alloc");
    const trace::OpId fc0 = r.intern("fc0.forward");
    r.record(ev(0, trace::EventKind::kMalloc, 1, 512, alloc));
    r.record(ev(10, trace::EventKind::kWrite, 1, 512, fc0));
    r.record(ev(20, trace::EventKind::kMalloc, 2, 1024, alloc));
    r.record(ev(30, trace::EventKind::kRead, 1, 512,
                r.intern("fc1.forward")));
    r.record(ev(40, trace::EventKind::kFree, 1, 512));
    r.record(ev(90, trace::EventKind::kWrite, 2, 1024, fc0));
    return r;
}

TEST(TraceView, ColumnsEqualTheRecordedEvents)
{
    const auto r = small_trace();
    const TraceView view(r);
    ASSERT_EQ(view.size(), r.size());
    for (std::size_t i = 0; i < r.size(); ++i) {
        const auto &e = r.events()[i];
        EXPECT_EQ(view.time(i), e.time);
        EXPECT_EQ(view.kind(i), e.kind);
        EXPECT_EQ(view.block(i), e.block);
        EXPECT_EQ(view.ptr(i), e.ptr);
        EXPECT_EQ(view.event_size(i), e.size);
        EXPECT_EQ(view.tensor(i), e.tensor);
        EXPECT_EQ(view.category(i), e.category);
        EXPECT_EQ(view.iteration(i), e.iteration);
        EXPECT_EQ(view.op_index(i), e.op_index);
        EXPECT_EQ(view.op_id(i), e.op);
        EXPECT_EQ(view.op(i), r.op_name(e.op)) << "op names must be exact";
    }
}

/** Expects @p view to hold exactly small_trace()'s events. */
void
expect_small_trace(const TraceView &view)
{
    const trace::TraceRecorder expected = small_trace();
    ASSERT_EQ(view.size(), expected.size());
    for (std::size_t i = 0; i < view.size(); ++i) {
        const trace::MemoryEvent e = expected.events()[i];
        EXPECT_EQ(view.time(i), e.time) << "event " << i;
        EXPECT_EQ(view.kind(i), e.kind) << "event " << i;
        EXPECT_EQ(view.block(i), e.block) << "event " << i;
        EXPECT_EQ(view.op_id(i), e.op) << "event " << i;
    }
    EXPECT_EQ(view.op(1), "fc0.forward");
    EXPECT_EQ(view.count(trace::EventKind::kMalloc), 2u);
    EXPECT_EQ(view.timeline().blocks().size(), 2u);
}

TEST(TraceView, SnapshotOutlivesTheRecorder)
{
    // The view owns its storage: whatever the recorder does next.
    trace::TraceRecorder r = small_trace();
    const TraceView view(r);
    r.record(ev(100, trace::EventKind::kFree, 2, 1024));
    r.record(ev(110, trace::EventKind::kMalloc, 3, 64));
    EXPECT_EQ(r.size(), 8u);
    expect_small_trace(view);
    r.clear();
    EXPECT_TRUE(r.empty());
    expect_small_trace(view);

    auto owner = std::make_unique<trace::TraceRecorder>(small_trace());
    const TraceView orphan(*owner);
    owner.reset();
    expect_small_trace(orphan);
}

TEST(TraceView, CopiedRecorderThatRecordsLeavesTheOriginalAlone)
{
    const trace::TraceRecorder original = small_trace();
    const TraceView view(original);
    trace::TraceRecorder copy = original;
    copy.record(ev(100, trace::EventKind::kFree, 2, 1024));
    EXPECT_EQ(copy.size(), 7u);
    EXPECT_EQ(original.size(), 6u);
    EXPECT_EQ(original.events().back().time, 90u);
    EXPECT_EQ(&view.columns(), &original.columns());
    expect_small_trace(view);
    EXPECT_EQ(TraceView(copy).size(), 7u);
}

TEST(TraceView, FreezeSharesTheRecordersColumns)
{
    const trace::TraceRecorder r = small_trace();
    const TraceView view(r);
    EXPECT_EQ(&view.columns(), &r.columns()) << "no column was copied";
    const TraceView second(r);
    EXPECT_EQ(&second.columns(), &view.columns());
}

TEST(TraceView, OpNamesSurviveFreezeAndCsv)
{
    runtime::SessionConfig config;
    config.batch = 8;
    config.iterations = 3;
    const runtime::SessionResult run =
        runtime::run_training(nn::build_model("resnet18"), config);
    const trace::TraceRecorder &rec = run.trace;
    const auto name_of = [](const trace::TraceRecorder &r,
                            std::size_t i) -> const std::string & {
        return r.op_name(r.events()[i].op);
    };

    // The freeze resolves every event through the recorder's table.
    const TraceView view(rec);
    ASSERT_EQ(view.size(), rec.size());
    std::size_t named = 0;
    for (std::size_t i = 0; i < rec.size(); ++i) {
        ASSERT_EQ(view.op(i), name_of(rec, i)) << "event " << i;
        named += !view.op(i).empty();
    }
    EXPECT_EQ(named, rec.size()) << "the engine names every event";

    // A CSV round trip re-interns every name.
    std::stringstream csv;
    trace::write_csv(rec, csv);
    const trace::TraceRecorder reread = trace::read_csv(csv);
    ASSERT_EQ(reread.size(), rec.size());
    for (std::size_t i = 0; i < rec.size(); ++i)
        ASSERT_EQ(name_of(reread, i), name_of(rec, i)) << "event " << i;
}

TEST(TraceView, PerKindCounts)
{
    const TraceView view(small_trace());
    EXPECT_EQ(view.count(trace::EventKind::kMalloc), 2u);
    EXPECT_EQ(view.count(trace::EventKind::kFree), 1u);
    EXPECT_EQ(view.count(trace::EventKind::kRead), 1u);
    EXPECT_EQ(view.count(trace::EventKind::kWrite), 2u);
    // The mallocs sit where the kind column says.
    EXPECT_EQ(view.kind(0), trace::EventKind::kMalloc);
    EXPECT_EQ(view.kind(2), trace::EventKind::kMalloc);
    // Counts match what TraceRecorder::count rescans for.
    const auto r = small_trace();
    for (auto k :
         {trace::EventKind::kMalloc, trace::EventKind::kFree,
          trace::EventKind::kRead, trace::EventKind::kWrite})
        EXPECT_EQ(view.count(k), test_support::count_kind(r, k));
}

TEST(TraceView, SubIndicesAreLazyAndBuiltOnce)
{
    const TraceView view(small_trace());
    // Nothing built yet: only the freeze walked the events.
    auto s = view.build_stats();
    EXPECT_EQ(s.timeline_builds, 0u);
    EXPECT_EQ(s.producer_builds, 0u);
    EXPECT_EQ(s.pattern_builds, 0u);
    EXPECT_EQ(s.index_builds(), 0u);
    EXPECT_EQ(s.events_walked, view.size());

    const Timeline &t1 = view.timeline();
    const Timeline &t2 = view.timeline();
    EXPECT_EQ(&t1, &t2) << "timeline must be cached, not rebuilt";
    s = view.build_stats();
    EXPECT_EQ(s.timeline_builds, 1u);

    EXPECT_EQ(&view.producers(), &view.producers());
    EXPECT_EQ(&view.iteration_pattern(), &view.iteration_pattern());
    s = view.build_stats();
    EXPECT_EQ(s.timeline_builds, 1u);
    EXPECT_EQ(s.producer_builds, 1u);
    EXPECT_EQ(s.pattern_builds, 1u);
    EXPECT_EQ(s.index_builds(), 3u);
    // The freeze, the Timeline and the pattern walk the events once
    // each; the producer index walks them twice.
    EXPECT_EQ(s.events_walked, 5 * view.size());
    EXPECT_EQ(s.events_tiled, 0u) << "a recorded trace has no tiles";
}

TEST(TraceView, TiledEventsAreCountedApartFromWalkedOnes)
{
    // A weight, then an iteration that allocates, writes and frees a
    // block while reading the weight, copied three times.
    trace::TraceRecorder r;
    r.record(ev(0, trace::EventKind::kMalloc, 1, 4096));
    r.record(ev(1, trace::EventKind::kMalloc, 2, 64));
    r.record(ev(2, trace::EventKind::kWrite, 2, 64));
    r.record(ev(3, trace::EventKind::kRead, 1, 4096));
    r.record(ev(4, trace::EventKind::kFree, 2, 64));
    trace::EventShift shift;
    shift.first_block = 2;
    for (std::uint32_t copy = 1; copy <= 3; ++copy) {
        shift.time = 10 * copy;
        shift.block = copy;
        shift.iteration = copy;
        r.repeat(1, 5, shift);
    }
    r.record(ev(50, trace::EventKind::kFree, 1, 4096));
    ASSERT_EQ(r.size(), 18u);

    const TraceView view(r);
    ASSERT_EQ(view.tiles().size(), 3u);
    // The freeze walks the weight, the iteration and the last free,
    // and gives the three copies their slots by shift.
    auto s = view.build_stats();
    EXPECT_EQ(s.events_walked, 6u);
    EXPECT_EQ(s.events_tiled, 12u);

    (void)view.timeline();
    (void)view.producers();
    (void)view.iteration_pattern();
    s = view.build_stats();
    EXPECT_EQ(s.events_walked, 5u * 6u);
    EXPECT_EQ(s.events_tiled, 5u * 12u);
}

TEST(TraceView, EmptyTraceBehaves)
{
    const TraceView view{trace::TraceRecorder()};
    EXPECT_TRUE(view.empty());
    EXPECT_EQ(view.size(), 0u);
    EXPECT_EQ(view.count(trace::EventKind::kMalloc), 0u);
    const Timeline &t = view.timeline();
    EXPECT_TRUE(t.blocks().empty());
    EXPECT_EQ(t.peak_bytes(), 0u);
    EXPECT_EQ(t.peak_time(), 0u);
    // The probes must answer (0), not read an empty prefix array.
    EXPECT_EQ(t.live_bytes_at(0), 0u);
    EXPECT_EQ(t.live_bytes_at(12345), 0u);
    EXPECT_TRUE(t.live_at(0).empty());
    EXPECT_TRUE(view.producers().empty());
}

TEST(TraceView, InconsistentTraceThrowsOnTimelineNotOnFreeze)
{
    trace::TraceRecorder r;
    r.record(ev(0, trace::EventKind::kRead, 9, 512));
    const TraceView view(r);  // the freeze itself never validates
    EXPECT_THROW(view.timeline(), Error);
    // The failed build is not sticky: the next call retries (and
    // fails the same way, but never dereferences a null slot).
    EXPECT_THROW(view.timeline(), Error);
    EXPECT_EQ(view.build_stats().timeline_builds, 0u);
}

TEST(TraceView, TimelineProbesMatchBruteForce)
{
    runtime::SessionConfig config;
    config.batch = 16;
    config.iterations = 2;
    const auto r = runtime::run_training(
        nn::build_model("alexnet-cifar"), config);
    const Timeline &t = r.view().timeline();

    // The prefix-sum probes must agree with a brute-force scan over
    // the block lifetimes at every interesting instant.
    std::vector<TimeNs> probes = {t.start(), t.end(),
                                  t.peak_time()};
    for (std::size_t i = 0; i < t.blocks().size(); i += 7) {
        probes.push_back(t.blocks()[i].alloc_time);
        if (t.blocks()[i].freed)
            probes.push_back(t.blocks()[i].free_time);
    }
    for (TimeNs probe : probes) {
        std::size_t brute = 0;
        std::size_t brute_count = 0;
        for (const auto &b : t.blocks()) {
            if (b.alloc_time <= probe &&
                (!b.freed || b.free_time > probe)) {
                brute += b.size;
                ++brute_count;
            }
        }
        EXPECT_EQ(t.live_bytes_at(probe), brute) << probe;
        EXPECT_EQ(t.live_at(probe).size(), brute_count) << probe;
    }
    EXPECT_EQ(t.peak_bytes(), t.live_bytes_at(t.peak_time()));
    EXPECT_EQ(t.peak_bytes(), test_support::peak_occupancy(
                                  test_support::sorted_edges_oracle(r.trace)));
}

TEST(TraceView, SixteenThreadHammerSharesOneBuild)
{
    runtime::SessionConfig config;
    config.batch = 32;
    config.iterations = 2;
    const auto r = runtime::run_training(nn::build_model("mlp"),
                                         config);
    const TraceView &view = r.view();

    std::vector<const void *> timelines(16, nullptr);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < timelines.size(); ++i) {
        threads.emplace_back([&view, &timelines, i] {
            view.producers();
            view.iteration_pattern();
            view.count(trace::EventKind::kRead);
            timelines[i] = &view.timeline();
        });
    }
    for (auto &thread : threads)
        thread.join();
    for (const void *address : timelines)
        EXPECT_EQ(address, &view.timeline());
    const auto s = view.build_stats();
    EXPECT_EQ(s.timeline_builds, 1u);
    EXPECT_EQ(s.producer_builds, 1u);
    EXPECT_EQ(s.pattern_builds, 1u);
}

/**
 * The refactor's core promise, zoo-wide: every refactored signature
 * produces byte-for-byte the result the pre-refactor recorder-based
 * code produced. Pre-refactor, each call built its own private
 * index from the recorder; a fresh TraceView per call is exactly
 * that computation, so shared-view == fresh-view proves sharing
 * changed cost, never results.
 */
TEST(TraceView, SharedViewEqualsFreshViewsAcrossTheZoo)
{
    for (const std::string &name : nn::default_zoo_names()) {
        SCOPED_TRACE(name);
        runtime::SessionConfig config;
        config.batch = 8;
        config.iterations = 2;
        const auto r =
            runtime::run_training(nn::build_model(name), config);

        const TraceView &shared = r.view();
        const TraceView fresh(r.trace);

        // Analysis layer.
        EXPECT_EQ(report_string(shared), report_string(fresh));
        const auto sa = compute_atis(shared);
        const auto fa = compute_atis(fresh);
        ASSERT_EQ(sa.size(), fa.size());
        for (std::size_t i = 0; i < sa.size(); ++i) {
            EXPECT_EQ(sa[i].interval, fa[i].interval);
            EXPECT_EQ(sa[i].block, fa[i].block);
        }
        EXPECT_EQ(occupation_breakdown(shared).at_peak,
                  occupation_breakdown(fresh).at_peak);
        EXPECT_EQ(shared.iteration_pattern().signatures,
                  fresh.iteration_pattern().signatures);
        const auto ss = occupancy_series(shared, 64);
        const auto fs = occupancy_series(fresh, 64);
        ASSERT_EQ(ss.size(), fs.size());
        for (std::size_t i = 0; i < ss.size(); ++i)
            EXPECT_EQ(ss[i].bytes, fs[i].bytes);

        // Swap layer.
        swap::PlannerOptions sopts;
        sopts.link = LinkBandwidth{6.4e9, 6.3e9};
        const auto splan = swap::SwapPlanner(sopts).plan(shared);
        const auto fplan = swap::SwapPlanner(sopts).plan(fresh);
        EXPECT_EQ(splan.decisions.size(), fplan.decisions.size());
        EXPECT_EQ(splan.peak_reduction_bytes,
                  fplan.peak_reduction_bytes);
        EXPECT_EQ(swap::totals_of(splan).overhead,
                  swap::totals_of(fplan).overhead);
        const auto sexec =
            swap::execute_plan(shared, splan, sopts.link);
        const auto fexec =
            swap::execute_plan(fresh, fplan, sopts.link);
        EXPECT_EQ(sexec.new_peak_bytes, fexec.new_peak_bytes);
        EXPECT_EQ(sexec.measured_stall, fexec.measured_stall);

        // Relief layer (both planners share the view's indices).
        relief::StrategyOptions ropts;
        ropts.link = sopts.link;
        const auto srel =
            relief::StrategyPlanner(ropts).plan_all(shared);
        const auto frel =
            relief::StrategyPlanner(ropts).plan_all(fresh);
        for (int i = 0; i < relief::kNumStrategies; ++i) {
            EXPECT_EQ(relief::totals_of(srel[i]).covered_bytes,
                      relief::totals_of(frel[i]).covered_bytes);
            EXPECT_EQ(srel[i].measured_overhead,
                      frel[i].measured_overhead);
            EXPECT_EQ(srel[i].decisions.size(),
                      frel[i].decisions.size());
        }

        // And the whole battery above forced exactly one timeline
        // build on the shared view — the invariant that makes
        // sharing worth it.
        EXPECT_EQ(shared.build_stats().timeline_builds, 1u);
    }
}

}  // namespace
}  // namespace analysis
}  // namespace pinpoint
