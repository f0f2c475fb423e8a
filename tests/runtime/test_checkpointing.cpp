/** @file Tests for activation checkpointing (recompute) plans. */
#include <gtest/gtest.h>

#include "analysis/breakdown.h"
#include "core/check.h"
#include "nn/models.h"
#include "runtime/plan_builder.h"
#include "runtime/session.h"

namespace pinpoint {
namespace runtime {
namespace {

PlanOptions
ckpt(int every)
{
    PlanOptions opt;
    opt.checkpoint_every = every;
    return opt;
}

TEST(Checkpointing, PlanValidatesOnChainModels)
{
    for (const nn::Model &m :
         {nn::mlp(), nn::alexnet_cifar(), nn::vgg16(),
          nn::mobilenet_v1()}) {
        const Plan plan = build_plan(m, 8, ckpt(3));
        validate_plan(plan);
    }
}

TEST(Checkpointing, RejectsFanOutGraphs)
{
    EXPECT_THROW(build_plan(nn::resnet(18), 4, ckpt(2)), Error);
    EXPECT_THROW(build_plan(nn::squeezenet(), 4, ckpt(2)), Error);
    EXPECT_THROW(build_plan(nn::transformer_encoder(), 2, ckpt(2)),
                 Error);
}

TEST(Checkpointing, EmitsRecomputeTensors)
{
    const Plan base = build_plan(nn::vgg16(), 4, ckpt(0));
    const Plan with = build_plan(nn::vgg16(), 4, ckpt(4));
    std::size_t rc = 0;
    for (const auto &t : with.tensors)
        if (t.name.find(".rc") != std::string::npos)
            ++rc;
    EXPECT_GT(rc, 0u);
    EXPECT_GT(with.iteration_ops.size(), base.iteration_ops.size())
        << "recompute adds forward ops";
}

TEST(Checkpointing, NonCheckpointActivationsFreedInForward)
{
    const Plan plan = build_plan(nn::vgg16(), 4, ckpt(4));
    // Find the first backward op index.
    std::size_t first_bwd = 0;
    for (std::size_t i = 0; i < plan.iteration_ops.size(); ++i) {
        if (plan.iteration_ops[i].phase == OpPhase::kBackward) {
            first_bwd = i;
            break;
        }
    }
    // Count original (non-.rc) activation frees before backward:
    // checkpointing must free most of them in the forward region.
    std::size_t early_act_frees = 0;
    for (std::size_t i = 0; i < first_bwd; ++i) {
        for (TensorId id : plan.iteration_ops[i].frees) {
            const auto &name = plan.tensor(id).name;
            if (name.find(".out") != std::string::npos &&
                name.find(".rc") == std::string::npos)
                ++early_act_frees;
        }
    }
    EXPECT_GT(early_act_frees, 5u);
}

TEST(Checkpointing, ReducesPeakAtRecomputeCost)
{
    auto run = [](int every) {
        SessionConfig config;
        config.batch = 64;
        config.iterations = 2;
        config.plan.checkpoint_every = every;
        const auto r =
            run_training(nn::mobilenet_v1(), config);
        return std::pair(
            analysis::occupation_breakdown(r.view()).peak_total(),
            r.iteration_time);
    };
    const auto [peak0, time0] = run(0);
    const auto [peak8, time8] = run(8);
    EXPECT_LT(static_cast<double>(peak8),
              0.7 * static_cast<double>(peak0))
        << "checkpointing must cut the peak substantially";
    EXPECT_GT(time8, time0) << "recompute costs simulated time";
}

TEST(Checkpointing, ComposesWithMicroBatching)
{
    PlanOptions opt;
    opt.checkpoint_every = 3;
    opt.micro_batches = 2;
    const Plan plan = build_plan(nn::alexnet_cifar(), 32, opt);
    validate_plan(plan);
}

TEST(Checkpointing, EveryOneKeepsAllMaterializingNodes)
{
    // checkpoint_every = 1 marks every materializing node: no
    // recompute tensors should appear.
    const Plan plan = build_plan(nn::mlp(), 16, ckpt(1));
    for (const auto &t : plan.tensors)
        EXPECT_EQ(t.name.find(".rc"), std::string::npos) << t.name;
}

}  // namespace
}  // namespace runtime
}  // namespace pinpoint
