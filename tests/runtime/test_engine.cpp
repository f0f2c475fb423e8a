/** @file Unit tests for the training engine. */
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "alloc/caching_allocator.h"
#include "alloc/device_memory.h"
#include "analysis/breakdown.h"
#include "analysis/trace_view.h"
#include "core/check.h"
#include "core/dtype.h"
#include "nn/models.h"
#include "runtime/engine.h"
#include "runtime/plan_builder.h"
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
    EXPECT_EQ(engine.usage().peak_total, breakdown.peak_total);
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

}  // namespace
}  // namespace runtime
}  // namespace pinpoint
