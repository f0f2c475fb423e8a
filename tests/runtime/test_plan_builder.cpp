/** @file Unit tests for plan lowering and liveness. */
#include <gtest/gtest.h>

#include <unordered_set>

#include "core/check.h"
#include "nn/models.h"
#include "runtime/plan_builder.h"
#include "support/plan_lookup.h"

namespace pinpoint {
namespace runtime {
namespace {

using test_support::has_tensor;
using test_support::tensor_named;

TEST(PlanBuilder, MlpPlanStructure)
{
    const Plan plan = build_plan(nn::mlp(), 64);
    EXPECT_EQ(plan.model_name, "mlp");
    EXPECT_EQ(plan.batch, 64);

    // Persistent tensors: W0, b0, W1, b1.
    EXPECT_EQ(plan.persistent.size(), 4u);
    EXPECT_EQ(plan.tensor(tensor_named(plan, "fc0.weight")).shape,
              (Shape{12288, 2}));
    EXPECT_EQ(plan.tensor(tensor_named(plan, "fc0.bias")).shape,
              (Shape{12288}));
    for (TensorId id : plan.persistent)
        EXPECT_EQ(plan.tensor(id).category, Category::kParameter);
}

TEST(PlanBuilder, MlpDecomposesLinearPerFig1)
{
    const Plan plan = build_plan(nn::mlp(), 64);
    std::vector<std::string> names;
    for (const Op &op : plan.iteration_ops)
        names.push_back(op.name);
    // Fig. 1: star (mat_mul) and plus (add_bias) are separate ops.
    EXPECT_NE(std::find(names.begin(), names.end(), "fc0.mat_mul"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "fc0.add_bias"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "relu0.forward"),
              names.end());
}

TEST(PlanBuilder, PhasesAreOrdered)
{
    const Plan plan = build_plan(nn::mlp(), 64);
    int last_phase = -1;
    for (const Op &op : plan.iteration_ops) {
        const int phase = static_cast<int>(op.phase);
        EXPECT_GE(phase, last_phase)
            << "op " << op.name << " out of phase order";
        last_phase = phase;
    }
    EXPECT_EQ(plan.iteration_ops.front().phase, OpPhase::kDataLoad);
    EXPECT_EQ(plan.iteration_ops.back().phase, OpPhase::kOptimizer);
}

TEST(PlanBuilder, DataLoadCarriesInputBytes)
{
    const Plan plan = build_plan(nn::mlp(), 64);
    const Op &load = plan.iteration_ops.front();
    const std::size_t x_bytes = 64 * 2 * 4;
    const std::size_t label_bytes = 64 * 8;
    EXPECT_EQ(load.h2d_bytes, x_bytes + label_bytes);
    EXPECT_EQ(plan.tensor(tensor_named(plan, "input.x")).category,
              Category::kInput);
    EXPECT_EQ(plan.tensor(tensor_named(plan, "input.labels")).dtype,
              DType::kI64);
}

TEST(PlanBuilder, OneOptimizerOpPerTrainableParam)
{
    const Plan plan = build_plan(nn::mlp(), 64);
    std::size_t sgd_ops = 0;
    for (const Op &op : plan.iteration_ops)
        if (op.phase == OpPhase::kOptimizer)
            ++sgd_ops;
    EXPECT_EQ(sgd_ops, 4u);
}

TEST(PlanBuilder, EagerFreesEveryTransientExactlyOnce)
{
    const Plan plan = build_plan(nn::resnet(18), 8);
    std::unordered_set<TensorId> persistent(plan.persistent.begin(),
                                            plan.persistent.end());
    std::unordered_set<TensorId> allocated;
    std::unordered_set<TensorId> freed;
    for (const Op &op : plan.iteration_ops) {
        for (TensorId id : op.allocs)
            EXPECT_TRUE(allocated.insert(id).second)
                << "double alloc of " << plan.tensor(id).name;
        for (TensorId id : op.frees)
            EXPECT_TRUE(freed.insert(id).second)
                << "double free of " << plan.tensor(id).name;
    }
    EXPECT_EQ(allocated, freed)
        << "every allocated tensor must be freed in-iteration";
    for (TensorId id : allocated)
        EXPECT_FALSE(persistent.count(id));
}

TEST(PlanBuilder, IterationEndPolicyDefersAllFrees)
{
    PlanOptions opt;
    opt.free_policy = FreePolicy::kIterationEnd;
    const Plan plan = build_plan(nn::mlp(), 64, opt);
    for (std::size_t i = 0; i + 1 < plan.iteration_ops.size(); ++i)
        EXPECT_TRUE(plan.iteration_ops[i].frees.empty())
            << plan.iteration_ops[i].name;
    EXPECT_FALSE(plan.iteration_ops.back().frees.empty());
}

TEST(PlanBuilder, InplaceReluAddsNoActivationTensor)
{
    const Plan plan = build_plan(nn::mlp(), 64);
    EXPECT_FALSE(has_tensor(plan, "relu0.out"));
}

TEST(PlanBuilder, ConvWorkspacesToggle)
{
    const Plan plan = build_plan(nn::resnet(18), 4);
    std::size_t workspaces = 0;
    for (const auto &t : plan.tensors)
        if (t.name.find(".workspace.") != std::string::npos)
            ++workspaces;
    EXPECT_GT(workspaces, 0u);
}

TEST(PlanBuilder, ResNetShortcutsAccumulateGradients)
{
    const Plan plan = build_plan(nn::resnet(18), 4);
    bool found_accum = false;
    for (const Op &op : plan.iteration_ops)
        if (op.name.find(".grad_accum") != std::string::npos)
            found_accum = true;
    EXPECT_TRUE(found_accum)
        << "fan-out of residual blocks must produce grad accumulation";
}

TEST(PlanBuilder, BackwardSplitsIntoCudnnKernels)
{
    const Plan plan = build_plan(nn::resnet(18), 4);
    std::size_t wgrad = 0;
    std::size_t dgrad = 0;
    for (const Op &op : plan.iteration_ops) {
        if (op.name.find(".backward.wgrad") != std::string::npos)
            ++wgrad;
        if (op.name.find(".backward.dgrad") != std::string::npos)
            ++dgrad;
    }
    EXPECT_GT(wgrad, 0u);
    // conv1 touches the graph input: it has a wgrad but no dgrad.
    EXPECT_EQ(dgrad, wgrad - 1);
}

TEST(PlanBuilder, ValidateAcceptsEveryZooModel)
{
    for (const nn::Model &m :
         {nn::mlp(), nn::alexnet_imagenet(), nn::alexnet_cifar(),
          nn::vgg16(), nn::vgg16(10, true), nn::resnet(18),
          nn::resnet(50), nn::inception_v1(), nn::mobilenet_v1(),
          nn::squeezenet()}) {
        const Plan plan = build_plan(m, 4);
        validate_plan(plan);  // aborts on violation
        EXPECT_GT(plan.iteration_ops.size(), 5u) << m.name;
        EXPECT_GT(plan.parameter_bytes(), 0u) << m.name;
    }
}

TEST(PlanBuilder, RejectsNonPositiveBatch)
{
    EXPECT_THROW(build_plan(nn::mlp(), 0), Error);
    EXPECT_THROW(build_plan(nn::mlp(), -1), Error);
}

TEST(Plan, TensorLookupThrowsOnUnknownId)
{
    const Plan plan = build_plan(nn::mlp(), 8);
    EXPECT_THROW(plan.tensor(99999), Error);
}

TEST(Plan, ParameterBytesMatchesShapeSum)
{
    const Plan plan = build_plan(nn::mlp(), 8);
    const std::size_t expected =
        (2 * 12288 + 12288 + 12288 * 2 + 2) * 4;
    EXPECT_EQ(plan.parameter_bytes(), expected);
    // Without optimizer state, the parameters are all that persists.
    for (TensorId id : plan.persistent)
        EXPECT_EQ(plan.tensor(id).category, Category::kParameter);
}

}  // namespace
}  // namespace runtime
}  // namespace pinpoint
