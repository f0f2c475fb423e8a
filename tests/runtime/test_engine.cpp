/** @file Unit tests for the training engine. */
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "alloc/allocator.h"
#include "alloc/buddy_allocator.h"
#include "alloc/caching_allocator.h"
#include "alloc/device_memory.h"
#include "analysis/breakdown.h"
#include "analysis/trace_view.h"
#include "core/check.h"
#include "core/dtype.h"
#include "nn/models.h"
#include "runtime/engine.h"
#include "runtime/plan_builder.h"
#include "runtime/session.h"
#include "support/engine_runs.h"
#include "support/trace_counts.h"

namespace pinpoint {
namespace runtime {
namespace {

class EngineTest : public ::testing::Test
{
  protected:
    EngineTest()
        : plan_(build_plan(nn::mlp(), 32)),
          device_(12ull * 1024 * 1024 * 1024),
          cost_(sim::DeviceSpec::titan_x_pascal()),
          alloc_(device_, clock_, cost_)
    {
    }

    Plan plan_;
    alloc::DeviceMemory device_;
    sim::VirtualClock clock_;
    sim::CostModel cost_;
    alloc::CachingAllocator alloc_;
    trace::TraceRecorder trace_;
};

TEST_F(EngineTest, SetupHappensOnceAndTagsEvents)
{
    Engine engine(plan_, alloc_, clock_, cost_, &trace_);
    engine.run(2);
    std::size_t setup_mallocs = 0;
    for (const auto &e : trace_.events()) {
        if (e.iteration == kSetupIteration &&
            e.kind == trace::EventKind::kMalloc)
            ++setup_mallocs;
    }
    EXPECT_EQ(setup_mallocs, plan_.persistent.size());
}

TEST_F(EngineTest, RunIsResumable)
{
    Engine engine(plan_, alloc_, clock_, cost_, &trace_);
    const auto last_iteration = [&] {
        std::uint32_t max_iter = 0;
        for (const auto &e : trace_.events())
            if (e.iteration != kSetupIteration)
                max_iter = std::max(max_iter, e.iteration);
        return max_iter;
    };
    engine.run(2);
    EXPECT_EQ(last_iteration(), 1u);
    // The second run continues the labels: iterations 0..4 appear.
    engine.run(3);
    EXPECT_EQ(last_iteration(), 4u);
}

TEST_F(EngineTest, MallocsAndFreesBalanceAfterTeardown)
{
    {
        Engine engine(plan_, alloc_, clock_, cost_, &trace_);
        engine.run(3);
        engine.teardown();
    }
    EXPECT_EQ(
        test_support::count_kind(trace_, trace::EventKind::kMalloc),
        test_support::count_kind(trace_, trace::EventKind::kFree));
    EXPECT_EQ(alloc_.live_blocks(), 0u);
    EXPECT_EQ(alloc_.stats().allocated_bytes, 0u);
}

TEST_F(EngineTest, DestructorTearsDown)
{
    {
        Engine engine(plan_, alloc_, clock_, cost_, &trace_);
        engine.run(1);
    }
    EXPECT_EQ(alloc_.live_blocks(), 0u);
}

TEST_F(EngineTest, UsageMatchesTraceBreakdown)
{
    Engine engine(plan_, alloc_, clock_, cost_, &trace_);
    engine.run(3);
    const auto breakdown = analysis::occupation_breakdown(analysis::TraceView(trace_));
    EXPECT_EQ(engine.usage().peak_total, breakdown.peak_total());
    for (int c = 0; c < kNumCategories; ++c)
        EXPECT_EQ(engine.usage().at_peak[c], breakdown.at_peak[c]);
}

TEST_F(EngineTest, EventsCarryOpContext)
{
    Engine engine(plan_, alloc_, clock_, cost_, &trace_);
    engine.run(1);
    bool saw_matmul_read = false;
    for (const auto &e : trace_.events()) {
        if (trace_.op_name(e.op) == "fc0.mat_mul" &&
            e.kind == trace::EventKind::kRead)
            saw_matmul_read = true;
        if (e.kind == trace::EventKind::kRead ||
            e.kind == trace::EventKind::kWrite) {
            EXPECT_FALSE(trace_.op_name(e.op).empty());
        }
    }
    EXPECT_TRUE(saw_matmul_read);
}

TEST_F(EngineTest, ClockAdvancesMonotonically)
{
    Engine engine(plan_, alloc_, clock_, cost_, &trace_);
    const TimeNs t0 = clock_.now();
    engine.run(1);
    const TimeNs t1 = clock_.now();
    engine.run(1);
    const TimeNs t2 = clock_.now();
    EXPECT_GT(t1, t0);
    EXPECT_GT(t2, t1);
    // Steady-state iterations cost the same simulated time.
    engine.run(1);
    const TimeNs t3 = clock_.now();
    EXPECT_EQ(t3 - t2, t2 - t1);
}

TEST_F(EngineTest, NullRecorderDisablesTracing)
{
    Engine engine(plan_, alloc_, clock_, cost_, nullptr);
    engine.run(2);
    EXPECT_TRUE(trace_.empty());
    EXPECT_GT(engine.usage().peak_total, 0u);
}

TEST_F(EngineTest, StagingBufferRequiresEpochLength)
{
    EngineOptions opts;
    opts.staging_buffer_bytes = 1024 * 1024;
    EXPECT_THROW(
        Engine(plan_, alloc_, clock_, cost_, &trace_, opts), Error);
}

TEST_F(EngineTest, StagingBufferShuffledOncePerEpoch)
{
    EngineOptions opts;
    opts.staging_buffer_bytes = 64 * 1024 * 1024;
    opts.iterations_per_epoch = 4;
    Engine engine(plan_, alloc_, clock_, cost_, &trace_, opts);
    engine.run(9);  // epochs at iterations 4 and 8
    std::size_t staging_writes = 0;
    std::size_t staging_reads = 0;
    for (const auto &e : trace_.events()) {
        if (trace_.op_name(e.op) == "dataset.shuffle") {
            if (e.kind == trace::EventKind::kWrite)
                ++staging_writes;
            else
                ++staging_reads;
        }
    }
    EXPECT_EQ(staging_writes, 2u);
    EXPECT_EQ(staging_reads, 2u);
}

TEST_F(EngineTest, TraceEventsCountsRunAndTeardown)
{
    {
        Engine engine(plan_, alloc_, clock_, cost_, &trace_);
        const std::size_t predicted = engine.trace_events(3);
        engine.run(3);
        engine.teardown();
        EXPECT_EQ(trace_.size(), predicted);
    }
    trace_.clear();
    EngineOptions opts;
    opts.staging_buffer_bytes = 64 * 1024 * 1024;
    opts.iterations_per_epoch = 4;
    Engine engine(plan_, alloc_, clock_, cost_, &trace_, opts);
    const std::size_t predicted = engine.trace_events(9);
    engine.run(9);
    engine.teardown();
    EXPECT_EQ(trace_.size(), predicted);
    // The staging buffer keeps its exported tensor id and is the
    // last binding teardown releases.
    const trace::MemoryEvent &last = trace_.events().back();
    EXPECT_EQ(last.kind, trace::EventKind::kFree);
    EXPECT_EQ(last.tensor, plan_.tensors.size() + 1000);
    EXPECT_EQ(trace_.op_name(last.op), "free.dataset.staging");
}

TEST_F(EngineTest, RejectsNonPositiveIterations)
{
    Engine engine(plan_, alloc_, clock_, cost_, &trace_);
    EXPECT_THROW(engine.run(0), Error);
    EXPECT_THROW(engine.run(-1), Error);
}

TEST_F(EngineTest, PerIterationEventCountIsStable)
{
    Engine engine(plan_, alloc_, clock_, cost_, &trace_);
    engine.run(4);
    std::array<std::size_t, 4> counts{};
    for (const auto &e : trace_.events()) {
        if (e.iteration != kSetupIteration)
            ++counts[e.iteration];
    }
    EXPECT_GT(counts[0], 0u);
    for (std::size_t i = 1; i < counts.size(); ++i)
        EXPECT_EQ(counts[i], counts[0])
            << "iteration " << i << " emitted a different event count";
}

/** @return tensor @p id's bytes from its shape and dtype alone. */
std::size_t
shape_bytes(const Plan &plan, TensorId id)
{
    const TensorMeta &t = plan.tensors[static_cast<std::size_t>(id)];
    return static_cast<std::size_t>(t.shape.numel()) *
           dtype_size(t.dtype);
}

/**
 * Runs @p plan for two iterations and checks every op that reads and
 * writes: its writes are recorded its kernel's duration after its
 * reads, the duration priced here from the plan's flops and tensor
 * shapes, not taken from the engine. @return the ops checked.
 */
std::size_t
expect_kernel_gaps(const Plan &plan)
{
    alloc::DeviceMemory device(12ull * 1024 * 1024 * 1024);
    sim::VirtualClock clock;
    const sim::CostModel cost(sim::DeviceSpec::titan_x_pascal());
    alloc::CachingAllocator alloc(device, clock, cost);
    trace::TraceRecorder trace;
    Engine engine(plan, alloc, clock, cost, &trace);
    engine.run(2);

    const std::size_t ops = plan.iteration_ops.size();
    constexpr TimeNs kUnseen = -1;
    std::vector<TimeNs> read_at(2 * ops, kUnseen);
    std::vector<TimeNs> write_at(2 * ops, kUnseen);
    for (const trace::MemoryEvent &e : trace.events()) {
        if (e.op_index < 0)
            continue;
        const std::size_t at =
            e.iteration * ops + static_cast<std::size_t>(e.op_index);
        if (e.kind == trace::EventKind::kRead)
            read_at[at] = e.time;
        else if (e.kind == trace::EventKind::kWrite)
            write_at[at] = e.time;
    }

    std::size_t checked = 0;
    for (std::size_t i = 0; i < ops; ++i) {
        const Op &op = plan.iteration_ops[i];
        if (op.reads.empty() || op.writes.empty())
            continue;
        TimeNs expected = 0;
        if (op.phase == OpPhase::kDataLoad) {
            expected = cost.h2d_time(op.h2d_bytes);
        } else {
            std::size_t read_bytes = 0;
            std::size_t write_bytes = 0;
            for (TensorId id : op.reads)
                read_bytes += shape_bytes(plan, id);
            for (TensorId id : op.writes)
                write_bytes += shape_bytes(plan, id);
            expected = cost.kernel_time(op.flops, read_bytes, write_bytes);
        }
        for (std::size_t iteration = 0; iteration < 2; ++iteration) {
            const std::size_t at = iteration * ops + i;
            EXPECT_NE(read_at[at], kUnseen) << op.name;
            EXPECT_EQ(write_at[at] - read_at[at], expected)
                << op.name << " in iteration " << iteration;
        }
        ++checked;
    }
    return checked;
}

TEST(EngineKernelTime, WritesFollowReadsByTheKernelTime)
{
    const nn::Model resnet18 = nn::resnet(18);
    for (const Plan &plan :
         {build_plan(nn::mlp(), 32), build_plan(resnet18, 4),
          build_inference_plan(resnet18, 4)})
        EXPECT_GT(expect_kernel_gaps(plan), 10u) << plan.model_name;
}

TEST_F(EngineTest, NegativeFlopsThrowAtConstruction)
{
    for (Op &op : plan_.iteration_ops) {
        if (op.phase != OpPhase::kDataLoad) {
            op.flops = -1.0;
            break;
        }
    }
    EXPECT_THROW(Engine(plan_, alloc_, clock_, cost_, &trace_), Error);
    EXPECT_TRUE(trace_.empty());
    EXPECT_EQ(alloc_.live_blocks(), 0u);
}

using test_support::NeverRepeating;
using test_support::Outcome;
using test_support::run_engine;
using test_support::serve;

template <typename T>
bool
same_column(const trace::Column<T> &a, const trace::Column<T> &b)
{
    return a.size() == b.size() &&
           std::equal(a.begin(), a.end(), b.begin());
}

/** Expects traces @p tiled and @p executed to hold the same events. */
void
expect_same_trace(const trace::TraceRecorder &tiled,
                  const trace::TraceRecorder &executed)
{
    const trace::EventColumns &a = tiled.columns();
    const trace::EventColumns &b = executed.columns();
    EXPECT_EQ(a.time.size(), b.time.size());
    EXPECT_TRUE(same_column(a.time, b.time));
    EXPECT_TRUE(same_column(a.kind, b.kind));
    EXPECT_TRUE(same_column(a.block, b.block));
    EXPECT_TRUE(same_column(a.ptr, b.ptr));
    EXPECT_TRUE(same_column(a.size, b.size));
    EXPECT_TRUE(same_column(a.tensor, b.tensor));
    EXPECT_TRUE(same_column(a.category, b.category));
    EXPECT_TRUE(same_column(a.iteration, b.iteration));
    EXPECT_TRUE(same_column(a.op_index, b.op_index));
    EXPECT_TRUE(same_column(a.op, b.op));
    EXPECT_EQ(tiled.op_names(), executed.op_names());
}

/** Expects @p tiled and @p executed to hold the same bytes. */
void
expect_same(const Outcome &tiled, const Outcome &executed)
{
    expect_same_trace(tiled.trace, executed.trace);

    const alloc::AllocatorStats &s = tiled.stats;
    const alloc::AllocatorStats &t = executed.stats;
    EXPECT_EQ(s.allocated_bytes, t.allocated_bytes);
    EXPECT_EQ(s.reserved_bytes, t.reserved_bytes);
    EXPECT_EQ(s.peak_allocated_bytes, t.peak_allocated_bytes);
    EXPECT_EQ(s.peak_reserved_bytes, t.peak_reserved_bytes);
    EXPECT_EQ(s.alloc_count, t.alloc_count);
    EXPECT_EQ(s.free_count, t.free_count);
    EXPECT_EQ(s.device_alloc_count, t.device_alloc_count);
    EXPECT_EQ(s.device_free_count, t.device_free_count);
    EXPECT_EQ(s.cache_hit_count, t.cache_hit_count);
    EXPECT_EQ(s.split_count, t.split_count);
    EXPECT_EQ(s.merge_count, t.merge_count);

    EXPECT_EQ(tiled.usage.current, executed.usage.current);
    EXPECT_EQ(tiled.usage.peak, executed.usage.peak);
    EXPECT_EQ(tiled.usage.peak_total, executed.usage.peak_total);
    EXPECT_EQ(tiled.usage.at_peak, executed.usage.at_peak);
    EXPECT_EQ(tiled.end_time, executed.end_time);
    EXPECT_EQ(tiled.peak_reserved_bytes, executed.peak_reserved_bytes);
    EXPECT_EQ(tiled.fragmentation, executed.fragmentation);
}

/** Runs @p iterations training iterations in one call. */
void
train(Engine &engine, int iterations)
{
    engine.run(iterations);
}

TEST(EngineTiling, TrainingEqualsIndependentExecution)
{
    const Plan plan = build_plan(nn::resnet(18), 16);
    for (int k = 0; k < kNumAllocatorKinds; ++k) {
        const auto kind = static_cast<AllocatorKind>(k);
        SCOPED_TRACE(allocator_kind_name(kind));
        const auto drive = [](Engine &engine, sim::VirtualClock &,
                              alloc::Allocator &) { train(engine, 20); };
        const Outcome tiled = run_engine(plan, kind, false, {}, drive);
        const Outcome executed = run_engine(plan, kind, true, {}, drive);
        EXPECT_EQ(executed.executed, 20);
        EXPECT_LT(tiled.executed, 20);
        expect_same(tiled, executed);
    }
}

TEST(EngineTiling, ServingEqualsIndependentExecution)
{
    const Plan plan = build_inference_plan(nn::resnet(50), 8);
    EngineOptions options;
    options.continuous_trace = true;
    for (int k = 0; k < kNumAllocatorKinds; ++k) {
        const auto kind = static_cast<AllocatorKind>(k);
        SCOPED_TRACE(allocator_kind_name(kind));
        const auto drive = [](Engine &engine, sim::VirtualClock &clock,
                              alloc::Allocator &) {
            serve(engine, clock, 256);
        };
        const Outcome tiled = run_engine(plan, kind, false, options, drive);
        const Outcome executed =
            run_engine(plan, kind, true, options, drive);
        EXPECT_EQ(executed.executed, 256);
        expect_same(tiled, executed);
    }
}

TEST(EngineTiling, StagingEpochsEqualIndependentExecution)
{
    const Plan plan = build_plan(nn::mlp(), 32);
    EngineOptions options;
    options.staging_buffer_bytes = 64 * 1024 * 1024;
    options.iterations_per_epoch = 3;
    for (int k = 0; k < kNumAllocatorKinds; ++k) {
        const auto kind = static_cast<AllocatorKind>(k);
        SCOPED_TRACE(allocator_kind_name(kind));
        const auto drive = [](Engine &engine, sim::VirtualClock &,
                              alloc::Allocator &) { train(engine, 10); };
        expect_same(run_engine(plan, kind, false, options, drive),
                    run_engine(plan, kind, true, options, drive));
    }
}

TEST(EngineTiling, CallerTouchingTheAllocatorBetweenRuns)
{
    // A block held across runs, then freed and the cache emptied:
    // every boundary's key reflects it, so nothing stale is tiled.
    const Plan plan = build_plan(nn::resnet(18), 16);
    for (int k = 0; k < kNumAllocatorKinds; ++k) {
        const auto kind = static_cast<AllocatorKind>(k);
        SCOPED_TRACE(allocator_kind_name(kind));
        const auto drive = [](Engine &engine, sim::VirtualClock &,
                              alloc::Allocator &allocator) {
            // An emptied cache makes the next iteration regrow it,
            // so that iteration does not end in the state it began
            // in; emptying the cache again brings that state back,
            // and the iteration must run, not repeat.
            engine.run(3);
            allocator.empty_cache();
            engine.run(1);
            allocator.empty_cache();
            engine.run(3);
            const alloc::Block held = allocator.allocate(3 << 20);
            engine.run(4);
            allocator.deallocate(held.id);
            allocator.empty_cache();
            engine.run(4);
            allocator.deallocate(allocator.allocate(5 << 20).id);
            engine.run(4);
        };
        expect_same(run_engine(plan, kind, false, {}, drive),
                    run_engine(plan, kind, true, {}, drive));
    }
}

TEST(EngineTiling, ClearedRecorderMakesTheNextIterationExecute)
{
    // The template's events are a range of the recorder: once clear()
    // drops them, the next iteration executes instead of copying
    // events that are gone, and the trace equals one where every
    // iteration executes.
    const Plan plan = build_plan(nn::resnet(18), 16);
    const sim::DeviceSpec spec = sim::DeviceSpec::titan_x_pascal();
    const sim::CostModel cost(spec);
    trace::TraceRecorder traces[2];
    int executed_after_clear[2] = {};
    for (int independent = 0; independent < 2; ++independent) {
        alloc::DeviceMemory device(spec.dram_bytes);
        sim::VirtualClock clock;
        alloc::CachingAllocator caching(device, clock, cost);
        NeverRepeating never(caching);
        alloc::Allocator &allocator =
            independent ? static_cast<alloc::Allocator &>(never) : caching;
        trace::TraceRecorder &trace = traces[independent];
        Engine engine(plan, allocator, clock, cost, &trace);
        engine.run(4);
        const int before = engine.executed_iterations();
        trace.clear();
        engine.run(4);
        executed_after_clear[independent] =
            engine.executed_iterations() - before;
        engine.teardown();
    }
    EXPECT_EQ(executed_after_clear[1], 4);
    EXPECT_EQ(executed_after_clear[0], 1)
        << "one iteration re-records the template, the rest copy it";
    EXPECT_FALSE(traces[0].columns().tiles().empty());
    expect_same_trace(traces[0], traces[1]);
}

TEST(EngineTiling, ReassignedRecorderMakesTheNextIterationExecute)
{
    // Assigning an older copy to the recorder drops the template's
    // events as clear() does, though the older events stay at their
    // indices: the next iteration executes instead of repeating a
    // range that is gone.
    const Plan plan = build_plan(nn::resnet(18), 16);
    const sim::DeviceSpec spec = sim::DeviceSpec::titan_x_pascal();
    const sim::CostModel cost(spec);
    trace::TraceRecorder traces[2];
    int executed_after_assign[2] = {};
    for (int independent = 0; independent < 2; ++independent) {
        alloc::DeviceMemory device(spec.dram_bytes);
        sim::VirtualClock clock;
        alloc::CachingAllocator caching(device, clock, cost);
        NeverRepeating never(caching);
        alloc::Allocator &allocator =
            independent ? static_cast<alloc::Allocator &>(never) : caching;
        trace::TraceRecorder &trace = traces[independent];
        Engine engine(plan, allocator, clock, cost, &trace);
        engine.run(1);
        const trace::TraceRecorder older = trace;
        engine.run(4);
        const int before = engine.executed_iterations();
        trace = older;
        engine.run(4);
        executed_after_assign[independent] =
            engine.executed_iterations() - before;
        engine.teardown();
    }
    EXPECT_EQ(executed_after_assign[1], 4);
    EXPECT_EQ(executed_after_assign[0], 1)
        << "one iteration re-records the template, the rest copy it";
    EXPECT_FALSE(traces[0].columns().tiles().empty());
    expect_same_trace(traces[0], traces[1]);
}

TEST(EngineTiling, TrailingKernelWithoutEvents)
{
    // The last op reads and writes nothing, so the clock moves past
    // the iteration's last event: a repeat must move it as far.
    Plan plan = build_plan(nn::mlp(), 32);
    Op tail;
    tail.name = "tail.kernel";
    tail.flops = 1e9;
    plan.iteration_ops.push_back(tail);
    for (int k = 0; k < kNumAllocatorKinds; ++k) {
        const auto kind = static_cast<AllocatorKind>(k);
        SCOPED_TRACE(allocator_kind_name(kind));
        const auto drive = [](Engine &engine, sim::VirtualClock &,
                              alloc::Allocator &) { train(engine, 6); };
        const Outcome tiled = run_engine(plan, kind, false, {}, drive);
        EXPECT_LT(tiled.executed, 6);
        expect_same(tiled, run_engine(plan, kind, true, {}, drive));
    }
}

TEST(EngineTiling, ExecutesOnlyUntilTheStateRepeats)
{
    // Caching: the first iteration grows the cache and the second
    // leaves it as it found it; every later one repeats the second.
    const Plan train_plan = build_plan(nn::resnet(18), 16);
    const Outcome trained = run_engine(
        train_plan, AllocatorKind::kCaching, false, {},
        [](Engine &engine, sim::VirtualClock &, alloc::Allocator &) {
            train(engine, 20);
        });
    EXPECT_EQ(trained.executed, 2);

    EngineOptions options;
    options.continuous_trace = true;
    const Outcome served = run_engine(
        build_inference_plan(nn::resnet(50), 8), AllocatorKind::kCaching,
        false, options,
        [](Engine &engine, sim::VirtualClock &clock, alloc::Allocator &) {
            serve(engine, clock, 1024);
        });
    EXPECT_EQ(served.executed, 2);
}

TEST(EngineTiling, AllocatorInvariantsHoldAfterTiledRuns)
{
    const Plan plan = build_plan(nn::resnet(18), 16);
    const sim::DeviceSpec spec = sim::DeviceSpec::titan_x_pascal();
    const sim::CostModel cost(spec);
    {
        alloc::DeviceMemory device(spec.dram_bytes);
        sim::VirtualClock clock;
        alloc::CachingAllocator caching(device, clock, cost);
        Engine engine(plan, caching, clock, cost, nullptr);
        engine.run(20);
        EXPECT_LT(engine.executed_iterations(), 20);
        caching.check_invariants();
        engine.teardown();
        caching.check_invariants();
        EXPECT_EQ(caching.stats().alloc_count,
                  caching.stats().free_count);
    }
    {
        alloc::DeviceMemory device(spec.dram_bytes);
        sim::VirtualClock clock;
        alloc::BuddyAllocator buddy(device, clock, cost,
                                    spec.dram_bytes / 2);
        Engine engine(plan, buddy, clock, cost, nullptr);
        engine.run(20);
        EXPECT_LT(engine.executed_iterations(), 20);
        buddy.check_invariants();
        engine.teardown();
        buddy.check_invariants();
        EXPECT_EQ(buddy.live_blocks(), 0u);
    }
}

TEST(EngineTiling, SplitRunsEqualOneRun)
{
    const Plan plan = build_plan(nn::resnet(18), 16);
    for (int k = 0; k < kNumAllocatorKinds; ++k) {
        const auto kind = static_cast<AllocatorKind>(k);
        SCOPED_TRACE(allocator_kind_name(kind));
        const Outcome split = run_engine(
            plan, kind, false, {},
            [](Engine &engine, sim::VirtualClock &, alloc::Allocator &) {
                engine.run(5);
                engine.run(1);
                engine.run(14);
            });
        const Outcome whole = run_engine(
            plan, kind, false, {},
            [](Engine &engine, sim::VirtualClock &, alloc::Allocator &) {
                engine.run(20);
            });
        expect_same(split, whole);
    }
}

}  // namespace
}  // namespace runtime
}  // namespace pinpoint
