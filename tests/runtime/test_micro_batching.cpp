/** @file Tests for gradient-accumulation (micro-batch) plans. */
#include <gtest/gtest.h>

#include "analysis/breakdown.h"
#include "core/check.h"
#include "nn/models.h"
#include "runtime/plan_builder.h"
#include "runtime/session.h"
#include "support/plan_lookup.h"
#include "support/trace_counts.h"

namespace pinpoint {
namespace runtime {
namespace {

PlanOptions
micro(int k)
{
    PlanOptions opt;
    opt.micro_batches = k;
    return opt;
}

TEST(MicroBatching, PlanValidatesForEveryK)
{
    for (int k : {1, 2, 4, 8}) {
        const Plan plan = build_plan(nn::mlp(), 64, micro(k));
        validate_plan(plan);
        // One data load per micro-batch.
        std::size_t loads = 0;
        for (const Op &op : plan.iteration_ops)
            if (op.phase == OpPhase::kDataLoad)
                ++loads;
        EXPECT_EQ(loads, static_cast<std::size_t>(k));
    }
}

TEST(MicroBatching, BatchMustDivide)
{
    EXPECT_THROW(build_plan(nn::mlp(), 10, micro(3)), Error);
    EXPECT_THROW(build_plan(nn::mlp(), 8, micro(0)), Error);
}

TEST(MicroBatching, OneOptimizerStepRegardlessOfK)
{
    const Plan plan = build_plan(nn::mlp(), 64, micro(4));
    std::size_t sgd_ops = 0;
    for (const Op &op : plan.iteration_ops)
        if (op.phase == OpPhase::kOptimizer)
            ++sgd_ops;
    EXPECT_EQ(sgd_ops, 4u) << "one SGD op per parameter, not per mb";
}

TEST(MicroBatching, GradBuffersAreSharedAndAccumulated)
{
    const Plan plan = build_plan(nn::mlp(), 64, micro(2));
    const TensorId wgrad =
        test_support::tensor_named(plan, "fc0.weight.grad");
    // The grad is allocated exactly once (first micro-batch) ...
    std::size_t allocs = 0;
    std::size_t accum_reads = 0;
    for (const Op &op : plan.iteration_ops) {
        for (TensorId id : op.allocs)
            if (id == wgrad)
                ++allocs;
        if (op.phase == OpPhase::kBackward) {
            const bool reads = std::count(op.reads.begin(),
                                          op.reads.end(), wgrad) > 0;
            const bool writes = std::count(op.writes.begin(),
                                           op.writes.end(), wgrad) > 0;
            if (reads && writes)
                ++accum_reads;
        }
    }
    EXPECT_EQ(allocs, 1u);
    EXPECT_EQ(accum_reads, 1u)
        << "the second micro-batch reads+writes (accumulates)";
}

TEST(MicroBatching, InputTensorsArePerMicroBatch)
{
    const Plan plan = build_plan(nn::mlp(), 64, micro(2));
    EXPECT_TRUE(test_support::has_tensor(plan, "input.x@mb0"));
    EXPECT_TRUE(test_support::has_tensor(plan, "input.x@mb1"));
    EXPECT_FALSE(test_support::has_tensor(plan, "input.x"));
    const TensorId x0 = test_support::tensor_named(plan, "input.x@mb0");
    EXPECT_EQ(plan.tensor(x0).shape, (Shape{32, 2}));
}

TEST(MicroBatching, ShrinksPeakIntermediates)
{
    // ResNet-18 is intermediate-dominated, so the effect is large.
    auto peak_with = [](int k) {
        SessionConfig config;
        config.batch = 32;
        config.iterations = 2;
        config.plan.micro_batches = k;
        const auto r = run_training(nn::resnet(18), config);
        const auto b = analysis::occupation_breakdown(r.view());
        return b.peak_per_category[static_cast<int>(
            Category::kIntermediate)];
    };
    const std::size_t k1 = peak_with(1);
    const std::size_t k4 = peak_with(4);
    EXPECT_LT(k4, k1);
    // Activations shrink ~4x; grads/workspaces put a floor under it.
    EXPECT_LT(static_cast<double>(k4),
              0.6 * static_cast<double>(k1));
}

TEST(MicroBatching, CostsMoreSimulatedTime)
{
    auto iter_time = [](int k) {
        SessionConfig config;
        config.batch = 128;
        config.iterations = 3;
        config.record_trace = false;
        config.plan.micro_batches = k;
        return run_training(nn::alexnet_cifar(), config)
            .iteration_time;
    };
    EXPECT_GT(iter_time(8), iter_time(1))
        << "8x the kernel launches must cost simulated time";
}

TEST(MicroBatching, EngineRunsKGreaterOne)
{
    SessionConfig config;
    config.batch = 32;
    config.iterations = 3;
    config.plan.micro_batches = 2;
    const auto r = run_training(nn::mlp(), config);
    EXPECT_EQ(
        test_support::count_kind(r.trace, trace::EventKind::kMalloc),
        test_support::count_kind(r.trace, trace::EventKind::kFree));
    // Two loss fetches per iteration → two loss.item read events.
    std::size_t loss_reads = 0;
    for (const auto &e : r.trace.events())
        if (r.trace.op_name(e.op) == "loss.item" && e.iteration == 0)
            ++loss_reads;
    EXPECT_EQ(loss_reads, 2u);
}

}  // namespace
}  // namespace runtime
}  // namespace pinpoint
