/**
 * @file
 * Tile-aware TraceView: every index of a tiled trace — the slot
 * column and kind counts, the Timeline's blocks, access runs, edges,
 * prefix sums and peak, the producer index, the iteration pattern,
 * the ATI statistics and the access gaps — equals the index built by
 * walking the same events re-recorded one by one (no tiles), and the
 * index of an independent run that executes every iteration
 * (test_support::NeverRepeating).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "alloc/allocator.h"
#include "analysis/ati.h"
#include "analysis/iteration.h"
#include "analysis/producers.h"
#include "analysis/stats.h"
#include "analysis/timeline.h"
#include "analysis/trace_view.h"
#include "core/check.h"
#include "core/types.h"
#include "nn/model_registry.h"
#include "runtime/data_parallel.h"
#include "runtime/engine.h"
#include "runtime/plan_builder.h"
#include "runtime/request_stream.h"
#include "runtime/session.h"
#include "sim/topology.h"
#include "support/engine_runs.h"
#include "trace/event.h"
#include "trace/recorder.h"

namespace pinpoint {
namespace analysis {
namespace {

using trace::EventKind;

/** @return @p recorder's events and names, recorded one by one. */
trace::TraceRecorder
untiled(const trace::TraceRecorder &recorder)
{
    trace::TraceRecorder flat;
    for (const std::string &name : recorder.op_names())
        flat.intern(name);
    flat.reserve(recorder.size());
    for (const trace::MemoryEvent &e : recorder.events())
        flat.record(e);
    return flat;
}

void
expect_same_timeline(const Timeline &a, const Timeline &b)
{
    EXPECT_EQ(a.start(), b.start());
    EXPECT_EQ(a.end(), b.end());
    EXPECT_EQ(a.peak_time(), b.peak_time());
    EXPECT_EQ(a.peak_bytes(), b.peak_bytes());
    ASSERT_EQ(a.blocks().size(), b.blocks().size());
    for (std::size_t s = 0; s < a.blocks().size(); ++s) {
        const BlockLifetime &x = a.blocks()[s];
        const BlockLifetime &y = b.blocks()[s];
        SCOPED_TRACE("slot " + std::to_string(s));
        ASSERT_EQ(x.block, y.block);
        ASSERT_EQ(x.ptr, y.ptr);
        ASSERT_EQ(x.size, y.size);
        ASSERT_EQ(x.tensor, y.tensor);
        ASSERT_EQ(x.alloc_time, y.alloc_time);
        ASSERT_EQ(x.free_time, y.free_time);
        ASSERT_EQ(x.alloc_iteration, y.alloc_iteration);
        ASSERT_EQ(x.first_access, y.first_access);
        ASSERT_EQ(x.access_count, y.access_count);
        ASSERT_EQ(x.category, y.category);
        ASSERT_EQ(x.freed, y.freed);
        const AccessList p = a.accesses(x);
        const AccessList q = b.accesses(y);
        ASSERT_TRUE(std::equal(p.begin(), p.end(), q.begin(), q.end()));
    }
    ASSERT_EQ(a.edges().size(), b.edges().size());
    for (std::size_t e = 0; e < a.edges().size(); ++e) {
        ASSERT_EQ(a.edges()[e].t, b.edges()[e].t) << "edge " << e;
        ASSERT_EQ(a.edges()[e].delta, b.edges()[e].delta) << "edge " << e;
    }
    EXPECT_EQ(a.prefix(), b.prefix());
}

void
expect_same_gaps(const TraceView &a, const TraceView &b,
                 std::size_t min_block_bytes)
{
    const std::vector<AccessGap> x = access_gaps(a, min_block_bytes);
    const std::vector<AccessGap> y = access_gaps(b, min_block_bytes);
    ASSERT_EQ(x.size(), y.size());
    for (std::size_t g = 0; g < x.size(); ++g) {
        ASSERT_EQ(x[g].start, y[g].start) << "gap " << g;
        ASSERT_EQ(x[g].end, y[g].end) << "gap " << g;
        ASSERT_EQ(x[g].slot, y[g].slot) << "gap " << g;
    }
}

/** Expects every index of @p tiled to equal @p flat's. */
void
expect_same_indices(const TraceView &tiled, const TraceView &flat)
{
    ASSERT_EQ(tiled.size(), flat.size());
    EXPECT_EQ(tiled.slot_count(), flat.slot_count());
    for (std::size_t i = 0; i < tiled.size(); ++i)
        ASSERT_EQ(tiled.slot(i), flat.slot(i)) << "event " << i;
    for (EventKind k : {EventKind::kMalloc, EventKind::kFree,
                        EventKind::kRead, EventKind::kWrite})
        EXPECT_EQ(tiled.count(k), flat.count(k));

    expect_same_timeline(tiled.timeline(), flat.timeline());

    const ProducerIndex &p = tiled.producers();
    const ProducerIndex &q = flat.producers();
    ASSERT_EQ(p.size(), q.size());
    for (std::size_t s = 0; s < p.size(); ++s) {
        ASSERT_EQ(p[s].op, q[s].op) << "slot " << s;
        ASSERT_EQ(p[s].forward_ns, q[s].forward_ns) << "slot " << s;
    }

    const IterationPattern &x = tiled.iteration_pattern();
    const IterationPattern &y = flat.iteration_pattern();
    EXPECT_EQ(x.period_allocs, y.period_allocs);
    EXPECT_EQ(x.period_confidence, y.period_confidence);
    EXPECT_EQ(x.iterations, y.iterations);
    EXPECT_EQ(x.signature_stability, y.signature_stability);
    EXPECT_EQ(x.signatures, y.signatures);

    const AtiStats u = ati_stats(tiled.timeline());
    const AtiStats v = ati_stats(flat.timeline());
    EXPECT_EQ(u.count, v.count);
    EXPECT_EQ(u.median, v.median);
    EXPECT_EQ(u.p90, v.p90);
    EXPECT_EQ(u.max, v.max);
    // Both paths run one selection; summarizing every sample checks
    // it against a sort.
    const SummaryStats w = summarize(ati_microseconds(compute_atis(flat)));
    EXPECT_EQ(v.count, w.count);
    EXPECT_EQ(v.median, w.median);
    EXPECT_EQ(v.p90, w.p90);
    EXPECT_EQ(v.max, w.max);

    expect_same_gaps(tiled, flat, 0);
    expect_same_gaps(tiled, flat, 1 << 20);
}

/**
 * Expects @p recorder to tile, and its view to index as the view of
 * its events re-recorded one by one does.
 */
void
expect_tiled_equals_flat(const trace::TraceRecorder &recorder)
{
    ASSERT_FALSE(recorder.columns().tiles().empty());
    const TraceView tiled(recorder);
    const TraceView flat(untiled(recorder));
    EXPECT_FALSE(tiled.tiles().empty());
    EXPECT_TRUE(flat.tiles().empty());
    expect_same_indices(tiled, flat);
    EXPECT_GT(tiled.build_stats().events_tiled, 0u);
    EXPECT_EQ(flat.build_stats().events_tiled, 0u);
}

runtime::SessionConfig
training(runtime::AllocatorKind kind, int iterations)
{
    runtime::SessionConfig config;
    config.batch = 16;
    config.iterations = iterations;
    config.allocator = kind;
    return config;
}

TEST(TiledView, TrainingOnEveryAllocator)
{
    const nn::Model model = nn::build_model("resnet18");
    for (int k = 0; k < runtime::kNumAllocatorKinds; ++k) {
        const auto kind = static_cast<runtime::AllocatorKind>(k);
        SCOPED_TRACE(runtime::allocator_kind_name(kind));
        expect_tiled_equals_flat(
            runtime::run_training(model, training(kind, 20)).trace);
    }
}

TEST(TiledView, BurstyServing)
{
    runtime::InferenceConfig config;
    config.session.batch = 8;
    config.requests = 256;
    config.arrival = runtime::ArrivalKind::kBursty;
    config.seed = runtime::arrival_seed("resnet50");
    const runtime::InferenceResult served =
        runtime::run_inference(nn::build_model("resnet50"), config);
    expect_tiled_equals_flat(served.session.trace);
}

TEST(TiledView, StagingEpochs)
{
    const nn::Model model = nn::build_model("mlp");
    for (int k = 0; k < runtime::kNumAllocatorKinds; ++k) {
        const auto kind = static_cast<runtime::AllocatorKind>(k);
        SCOPED_TRACE(runtime::allocator_kind_name(kind));
        runtime::SessionConfig config = training(kind, 12);
        config.engine.staging_buffer_bytes = 64ull * 1024 * 1024;
        config.engine.iterations_per_epoch = 3;
        expect_tiled_equals_flat(runtime::run_training(model, config).trace);
    }
}

TEST(TiledView, Checkpointing)
{
    // Checkpointing lowers chain models only.
    for (const char *name : {"mlp", "alexnet-cifar"}) {
        SCOPED_TRACE(name);
        runtime::SessionConfig config =
            training(runtime::AllocatorKind::kCaching, 10);
        config.plan.checkpoint_every = 2;
        expect_tiled_equals_flat(
            runtime::run_training(nn::build_model(name), config).trace);
    }
}

TEST(TiledView, DataParallelOverNvlink)
{
    runtime::DataParallelConfig config;
    config.session = training(runtime::AllocatorKind::kCaching, 10);
    config.devices = 2;
    config.interconnect = sim::InterconnectSpec::nvlink();
    expect_tiled_equals_flat(
        runtime::run_data_parallel(nn::build_model("resnet18"), config)
            .session.trace);
}

TEST(TiledView, EqualsAnIndependentExecution)
{
    // NeverRepeating makes the engine execute every iteration, so
    // its trace is recorded event by event: no tile at all.
    const auto check = [](const runtime::Plan &plan,
                          runtime::AllocatorKind kind,
                          const runtime::EngineOptions &options,
                          const auto &drive) {
        const test_support::Outcome tiled =
            test_support::run_engine(plan, kind, false, options, drive);
        const test_support::Outcome executed =
            test_support::run_engine(plan, kind, true, options, drive);
        ASSERT_FALSE(tiled.trace.columns().tiles().empty());
        ASSERT_TRUE(executed.trace.columns().tiles().empty());
        expect_same_indices(TraceView(tiled.trace),
                            TraceView(executed.trace));
    };
    const runtime::Plan train = runtime::build_plan(nn::resnet(18), 16);
    for (int k = 0; k < runtime::kNumAllocatorKinds; ++k) {
        const auto kind = static_cast<runtime::AllocatorKind>(k);
        SCOPED_TRACE(runtime::allocator_kind_name(kind));
        check(train, kind, {},
              [](runtime::Engine &engine, sim::VirtualClock &,
                 alloc::Allocator &) { engine.run(20); });
    }
    runtime::EngineOptions continuous;
    continuous.continuous_trace = true;
    check(runtime::build_inference_plan(nn::resnet(50), 8),
          runtime::AllocatorKind::kCaching, continuous,
          [](runtime::Engine &engine, sim::VirtualClock &clock,
             alloc::Allocator &) {
              test_support::serve(engine, clock, 256);
          });
}

trace::MemoryEvent
ev(TimeNs t, EventKind kind, BlockId block, std::size_t size,
   std::uint32_t iteration = 0, std::int32_t op_index = -1,
   trace::OpId op = 0)
{
    trace::MemoryEvent e;
    e.time = t;
    e.kind = kind;
    e.block = block;
    e.ptr = 0x1000 * block;
    e.size = size;
    e.category = Category::kIntermediate;
    e.iteration = iteration;
    e.op_index = op_index;
    e.op = op;
    return e;
}

TEST(TiledView, EqualTimeEdgesAcrossATileBoundary)
{
    // Each copy begins on the instant its predecessor ends, so the
    // predecessor's last free ties with the copy's first edges, and
    // the flat sort moves the copy's free ahead of its mallocs and of
    // that last free. The copy's edges in between keep their
    // source's order.
    trace::TraceRecorder r;
    const trace::OpId fwd = r.intern("fc.forward");
    r.record(ev(0, EventKind::kMalloc, 1, 4096));
    r.record(ev(5, EventKind::kMalloc, 2, 100));
    r.record(ev(5, EventKind::kMalloc, 3, 300));
    r.record(ev(5, EventKind::kWrite, 3, 300, 0, 0, fwd));
    r.record(ev(5, EventKind::kFree, 3, 300));
    r.record(ev(6, EventKind::kWrite, 2, 100, 0, 0, fwd));
    r.record(ev(7, EventKind::kMalloc, 4, 50));
    r.record(ev(7, EventKind::kRead, 2, 100, 0, 1, fwd));
    r.record(ev(8, EventKind::kWrite, 4, 50, 0, 1, fwd));
    r.record(ev(8, EventKind::kFree, 2, 100));
    r.record(ev(8, EventKind::kRead, 1, 4096, 0, 1, fwd));
    r.record(ev(10, EventKind::kFree, 4, 50));
    trace::EventShift shift;
    shift.first_block = 2;
    for (int copy = 1; copy <= 4; ++copy) {
        shift.time = 5 * static_cast<TimeNs>(copy);
        shift.block = 3 * static_cast<BlockId>(copy);
        r.repeat(1, 12, shift);
    }
    r.record(ev(40, EventKind::kFree, 1, 4096));

    const TraceView tiled(r);
    ASSERT_EQ(tiled.tiles().size(), 4u);
    const TraceView flat(untiled(r));
    expect_same_indices(tiled, flat);
    // At t = 10 the trace holds free 4, malloc, malloc, free.
    const std::vector<OccupancyEdge> &edges = tiled.timeline().edges();
    ASSERT_GE(edges.size(), 10u);
    const std::vector<std::int64_t> at_ten = {-300, -50, 100, 300};
    for (std::size_t e = 0; e < at_ten.size(); ++e) {
        EXPECT_EQ(edges[6 + e].t, 10u);
        EXPECT_EQ(edges[6 + e].delta, at_ten[e]);
    }
}

TEST(TiledView, BlockOpenedBeforeTheSourceIsAccessedInEveryTile)
{
    // Block 1 (a weight) lives through every copy: its access run
    // grows by one read per copy, and its gaps cross the tiles.
    trace::TraceRecorder r;
    const trace::OpId fwd = r.intern("fc.forward");
    r.record(ev(0, EventKind::kMalloc, 1, 8 << 20, trace::kSetupIteration));
    r.record(ev(1, EventKind::kWrite, 1, 8 << 20, trace::kSetupIteration));
    r.record(ev(10, EventKind::kMalloc, 2, 2 << 20, 0));
    r.record(ev(11, EventKind::kRead, 1, 8 << 20, 0, 0, fwd));
    r.record(ev(14, EventKind::kWrite, 2, 2 << 20, 0, 0, fwd));
    r.record(ev(15, EventKind::kRead, 2, 2 << 20, 0, 1, fwd));
    r.record(ev(18, EventKind::kRead, 1, 8 << 20, 0, 1, fwd));
    r.record(ev(19, EventKind::kFree, 2, 2 << 20, 0));
    trace::EventShift shift;
    shift.first_block = 2;
    for (std::uint32_t copy = 1; copy <= 6; ++copy) {
        // Uneven idle time between copies, as in a bursty stream.
        shift.time = 12 * copy + (copy % 2) * 3;
        shift.block = copy;
        shift.iteration = copy;
        r.repeat(2, 8, shift);
    }
    r.record(ev(200, EventKind::kRead, 1, 8 << 20, 7));
    r.record(ev(210, EventKind::kFree, 1, 8 << 20, 7));

    const TraceView tiled(r);
    ASSERT_EQ(tiled.tiles().size(), 6u);
    const TraceView flat(untiled(r));
    expect_same_indices(tiled, flat);
    const BlockLifetime &weight = tiled.timeline().blocks()[0];
    EXPECT_EQ(weight.access_count, 1u + 2u * 7u + 1u);
}

TEST(TiledView, TileThatDoesNotRepeatItsSourceIsWalked)
{
    // The second copy's moved id is still live when it starts, so
    // its chain is not its source's: the freeze walks it.
    trace::TraceRecorder r;
    r.record(ev(0, EventKind::kMalloc, 1, 64));
    r.record(ev(1, EventKind::kWrite, 1, 64));
    r.record(ev(2, EventKind::kFree, 1, 64));
    trace::EventShift shift;
    shift.first_block = 1;
    shift.block = 1;
    shift.time = 10;
    r.repeat(0, 3, shift);  // block 2, a tile
    r.record(ev(20, EventKind::kMalloc, 3, 64));
    shift.block = 2;
    shift.time = 20;
    r.repeat(0, 3, shift);  // block 3 again: a double malloc
    r.record(ev(30, EventKind::kFree, 3, 64));

    const TraceView tiled(r);
    EXPECT_EQ(tiled.tiles().size(), 1u);
    const TraceView flat(untiled(r));
    ASSERT_EQ(tiled.size(), flat.size());
    for (std::size_t i = 0; i < tiled.size(); ++i)
        EXPECT_EQ(tiled.slot(i), flat.slot(i)) << "event " << i;
    EXPECT_EQ(tiled.build_stats().events_tiled, 3u);
    EXPECT_THROW(tiled.timeline(), Error);
    EXPECT_THROW(flat.timeline(), Error);
}

}  // namespace
}  // namespace analysis
}  // namespace pinpoint
