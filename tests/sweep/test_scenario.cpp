/**
 * @file
 * Scenario grid expansion, CLI list parsing, and the model registry:
 * the declarative layer of the sweep subsystem.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "api/workload.h"
#include "core/check.h"
#include "nn/model_registry.h"
#include "sweep/scenario.h"

namespace pinpoint {
namespace sweep {
namespace {

TEST(ModelRegistry, CoversTheZooPlusTestVariants)
{
    const auto names = nn::model_names();
    EXPECT_GE(names.size(), 15u);
    for (const char *expected :
         {"mlp", "alexnet", "alexnet-cifar", "vgg16", "vgg16-bn",
          "resnet18", "resnet34", "resnet50", "resnet101", "resnet152",
          "inception", "mobilenet", "squeezenet", "transformer",
          "transformer-tiny"}) {
        EXPECT_TRUE(nn::has_model(expected)) << expected;
    }
}

TEST(ModelRegistry, DefaultZooExcludesTestVariants)
{
    const auto zoo = nn::default_zoo_names();
    EXPECT_GE(zoo.size(), 8u);
    EXPECT_EQ(std::count(zoo.begin(), zoo.end(), "transformer-tiny"),
              0);
    EXPECT_EQ(std::count(zoo.begin(), zoo.end(), "resnet50"), 1);
}

TEST(ModelRegistry, BuildsWorkingModels)
{
    const nn::Model m = nn::build_model("mlp");
    EXPECT_EQ(m.name, "mlp");
    EXPECT_GT(m.graph.size(), 0u);
}

TEST(ModelRegistry, UnknownModelThrows)
{
    EXPECT_THROW(nn::build_model("lenet"), Error);
    EXPECT_FALSE(nn::has_model("lenet"));
}

TEST(Scenario, IdIsStable)
{
    Scenario s;
    s.model = "resnet50";
    s.batch = 32;
    s.allocator = runtime::AllocatorKind::kCaching;
    s.device = "titan-x";
    EXPECT_EQ(s.id(), "resnet50/b32/caching/titan-x");
}

TEST(Scenario, SessionConfigPinsEveryAxis)
{
    Scenario s;
    s.model = "mlp";
    s.batch = 64;
    s.allocator = runtime::AllocatorKind::kBuddy;
    s.device = "a100";
    s.iterations = 3;
    const runtime::SessionConfig config = s.session_config();
    EXPECT_EQ(config.batch, 64);
    EXPECT_EQ(config.iterations, 3);
    EXPECT_EQ(config.allocator, runtime::AllocatorKind::kBuddy);
    EXPECT_EQ(config.device.name,
              sim::DeviceSpec::a100_40gb().name);
}

TEST(ExpandGrid, DefaultsToFullZooGrid)
{
    const auto scenarios = expand_grid(SweepGrid{});
    const auto zoo = nn::default_zoo_names();
    // models × {16,32,64} × {caching,direct,buddy} × {titan-x}
    EXPECT_EQ(scenarios.size(), zoo.size() * 3 * 3);
}

TEST(ExpandGrid, CanonicalOrderModelsOutermost)
{
    SweepGrid grid;
    grid.models = {"mlp", "resnet18"};
    grid.batches = {8, 16};
    grid.allocators = {runtime::AllocatorKind::kCaching,
                       runtime::AllocatorKind::kDirect};
    grid.device_presets = {"titan-x"};
    const auto scenarios = expand_grid(grid);
    ASSERT_EQ(scenarios.size(), 8u);
    EXPECT_EQ(scenarios[0].id(), "mlp/b8/caching/titan-x");
    EXPECT_EQ(scenarios[1].id(), "mlp/b8/direct/titan-x");
    EXPECT_EQ(scenarios[2].id(), "mlp/b16/caching/titan-x");
    EXPECT_EQ(scenarios[4].id(), "resnet18/b8/caching/titan-x");
    EXPECT_EQ(scenarios[7].id(), "resnet18/b16/direct/titan-x");
}

TEST(ExpandGrid, ValidatesEveryAxis)
{
    SweepGrid bad_model;
    bad_model.models = {"mlp", "nope"};
    EXPECT_THROW(expand_grid(bad_model), Error);

    SweepGrid bad_device;
    bad_device.device_presets = {"h100"};
    EXPECT_THROW(expand_grid(bad_device), Error);

    SweepGrid bad_batch;
    bad_batch.batches = {16, 0};
    EXPECT_THROW(expand_grid(bad_batch), Error);

    SweepGrid bad_iterations;
    bad_iterations.iterations = 0;
    EXPECT_THROW(expand_grid(bad_iterations), Error);

    SweepGrid bad_count;
    bad_count.device_counts = {2, 0};
    EXPECT_THROW(expand_grid(bad_count), Error);

    // Multi-device rows time the all-reduce on the steady-state
    // iteration, which needs a second iteration.
    SweepGrid one_dp_iteration;
    one_dp_iteration.device_counts = {1, 2};
    one_dp_iteration.iterations = 1;
    EXPECT_THROW(expand_grid(one_dp_iteration), UsageError);
    one_dp_iteration.device_counts = {1};
    EXPECT_NO_THROW(expand_grid(one_dp_iteration));

    SweepGrid bad_topology;
    bad_topology.topologies = {"infiniband"};
    EXPECT_THROW(expand_grid(bad_topology), Error);
}

TEST(ExpandGrid, DeviceCountAndTopologyAxesAreInnermost)
{
    SweepGrid grid;
    grid.models = {"mlp"};
    grid.batches = {8};
    grid.allocators = {runtime::AllocatorKind::kCaching};
    grid.device_counts = {1, 2};
    grid.topologies = {"pcie", "nvlink"};
    const auto scenarios = expand_grid(grid);
    ASSERT_EQ(scenarios.size(), 4u);
    // devices=1 scenarios keep the pre-topology id format no
    // matter which topology the grid carries.
    EXPECT_EQ(scenarios[0].id(), "mlp/b8/caching/titan-x");
    EXPECT_EQ(scenarios[1].id(), "mlp/b8/caching/titan-x");
    EXPECT_EQ(scenarios[2].id(),
              "mlp/b8/caching/titan-x/dp2/pcie");
    EXPECT_EQ(scenarios[3].id(),
              "mlp/b8/caching/titan-x/dp2/nvlink");
    EXPECT_EQ(scenarios[2].devices, 2);
    EXPECT_EQ(scenarios[3].topology, "nvlink");
}

TEST(Parsing, SplitListDropsEmptyFields)
{
    EXPECT_EQ(split_list(""), std::vector<std::string>{});
    EXPECT_EQ(split_list("a"), std::vector<std::string>{"a"});
    EXPECT_EQ(split_list("a,b,c"),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(split_list(",a,,b,"),
              (std::vector<std::string>{"a", "b"}));
}

TEST(Parsing, ParseBatches)
{
    EXPECT_EQ(parse_batches("16,32"),
              (std::vector<std::int64_t>{16, 32}));
    EXPECT_TRUE(parse_batches("").empty());
    EXPECT_THROW(parse_batches("16,huge"), Error);
    // Partial numbers must be an error, never a silent truncation
    // (std::stoll would have accepted "12abc" as 12).
    EXPECT_THROW(parse_batches("12abc"), Error);
}

TEST(Parsing, ParseDeviceCounts)
{
    EXPECT_EQ(parse_device_counts("1,2,4"),
              (std::vector<int>{1, 2, 4}));
    EXPECT_TRUE(parse_device_counts("").empty());
    EXPECT_THROW(parse_device_counts("0"), Error);
    EXPECT_THROW(parse_device_counts("two"), Error);
    // Partial numbers must be an error, never a silent truncation.
    EXPECT_THROW(parse_device_counts("2x"), Error);
    // The workload spec's one bound, typed as a usage error.
    EXPECT_EQ(parse_device_counts(std::to_string(api::kMaxDevices)),
              (std::vector<int>{api::kMaxDevices}));
    EXPECT_THROW(
        parse_device_counts(std::to_string(api::kMaxDevices + 1)),
        UsageError);
}

TEST(Parsing, ParseAllocators)
{
    const auto kinds = parse_allocators("caching,buddy");
    ASSERT_EQ(kinds.size(), 2u);
    EXPECT_EQ(kinds[0], runtime::AllocatorKind::kCaching);
    EXPECT_EQ(kinds[1], runtime::AllocatorKind::kBuddy);
    EXPECT_THROW(parse_allocators("slab"), Error);
}

TEST(Parsing, AllocatorKindNamesRoundTrip)
{
    for (int i = 0; i < runtime::kNumAllocatorKinds; ++i) {
        const auto kind = static_cast<runtime::AllocatorKind>(i);
        EXPECT_EQ(runtime::allocator_kind_from_name(
                      runtime::allocator_kind_name(kind)),
                  kind);
    }
}

TEST(Parsing, DeviceSpecByName)
{
    EXPECT_EQ(sim::device_spec_by_name("titan-x").name,
              sim::DeviceSpec::titan_x_pascal().name);
    EXPECT_EQ(sim::device_spec_by_name("tiny").name,
              sim::DeviceSpec::tiny_test_device().name);
    EXPECT_THROW(sim::device_spec_by_name("h100"), Error);
    EXPECT_EQ(sim::device_spec_names().size(), 3u);
}

}  // namespace
}  // namespace sweep
}  // namespace pinpoint
