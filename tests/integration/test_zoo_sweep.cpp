/**
 * @file
 * Parameterized sweep over the model zoo: every model × batch-size
 * combination must satisfy the characterization invariants the rest
 * of the library relies on. Cases are expressed as sweep Scenarios
 * against the shared model registry — the same abstraction the
 * parallel sweep driver executes — so this test and `pinpoint_cli
 * sweep` agree on what a workload is.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "analysis/ati.h"
#include "analysis/breakdown.h"
#include "analysis/iteration.h"
#include "analysis/timeline.h"
#include "analysis/trace_view.h"
#include "nn/model_registry.h"
#include "nn/shape_infer.h"
#include "runtime/session.h"
#include "support/trace_counts.h"
#include "sweep/driver.h"
#include "sweep/scenario.h"

namespace pinpoint {
namespace {

sweep::Scenario
zoo_case(const char *model, std::int64_t batch)
{
    sweep::Scenario s;
    s.model = model;
    s.batch = batch;
    s.iterations = 5;
    return s;
}

class ZooSweep : public ::testing::TestWithParam<sweep::Scenario>
{
};

TEST_P(ZooSweep, TrainingRunSatisfiesInvariants)
{
    const sweep::Scenario &scenario = GetParam();
    const nn::Model model = nn::build_model(scenario.model);
    const runtime::SessionConfig config = scenario.session_config();
    const auto r = runtime::run_training(model, config);

    // 1. Balanced allocation lifecycle.
    ASSERT_EQ(
        test_support::count_kind(r.trace, trace::EventKind::kMalloc),
        test_support::count_kind(r.trace, trace::EventKind::kFree));
    ASSERT_EQ(r.alloc_stats.alloc_count, r.alloc_stats.free_count);

    // 2. The trace replays consistently.
    const analysis::Timeline &timeline = r.view().timeline();
    EXPECT_GT(timeline.blocks().size(), 0u);

    // 3. Perfectly iterative in steady state (the paper's Fig. 2
    //    claim). The first couple of iterations may record different
    //    rounded block sizes while the caching allocator's free
    //    lists settle (cold segments served unsplit), so check that
    //    the warm iterations 2..4 share one allocation signature.
    const auto &pattern = r.view().iteration_pattern();
    ASSERT_EQ(pattern.signatures.size(), 5u);
    EXPECT_EQ(pattern.signatures[2], pattern.signatures[3]);
    EXPECT_EQ(pattern.signatures[3], pattern.signatures[4]);
    EXPECT_GT(pattern.period_allocs, 0u);

    // 4. Breakdown accounting: categories sum to the peak, and the
    //    engine's live accounting agrees with the trace replay.
    const auto b = analysis::occupation_breakdown(r.view());
    EXPECT_EQ(b.at_peak[0] + b.at_peak[1] + b.at_peak[2],
              b.peak_total());
    EXPECT_EQ(r.usage.peak_total, b.peak_total());

    // 5. Parameter bytes at peak >= the model's parameter payload
    //    (rounding can only add).
    const auto infos =
        nn::infer(model.graph, model.input_shape(scenario.batch));
    EXPECT_GE(b.at_peak[static_cast<int>(Category::kParameter)],
              static_cast<std::size_t>(
                  nn::total_param_bytes(infos)));

    // 6. ATIs exist and are non-negative with sane attribution.
    const auto atis = analysis::compute_atis(r.view());
    EXPECT_GT(atis.size(), 10u);
    const auto groups = analysis::attribute_atis(r.view(), atis);
    EXPECT_FALSE(groups.empty());

    // 7. Peak fits the device (we ran without OOM).
    EXPECT_LE(r.peak_reserved_bytes, config.device.dram_bytes);

    // 8. The sweep driver's aggregation of this scenario agrees
    //    with the direct run (same deterministic simulation).
    const auto aggregated = sweep::run_scenario(scenario, false);
    ASSERT_EQ(aggregated.status, sweep::ScenarioStatus::kOk)
        << aggregated.error;
    EXPECT_EQ(aggregated.peak_total_bytes, r.usage.peak_total);
    EXPECT_EQ(aggregated.end_time, r.end_time);
    EXPECT_EQ(aggregated.ati_count, atis.size());
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, ZooSweep,
    ::testing::Values(zoo_case("mlp", 16), zoo_case("mlp", 256),
                      zoo_case("alexnet-cifar", 32),
                      zoo_case("alexnet-cifar", 256),
                      zoo_case("alexnet", 16),
                      zoo_case("vgg16", 8),
                      // Deliberately the registry's 1000-class BN
                      // variant (the pre-registry sweep used a
                      // 10-class head): test and CLI now share one
                      // definition of each workload.
                      zoo_case("vgg16-bn", 8),
                      zoo_case("resnet18", 16),
                      zoo_case("resnet34", 8),
                      zoo_case("resnet50", 8),
                      zoo_case("resnet101", 4),
                      zoo_case("resnet152", 4),
                      zoo_case("inception", 16),
                      zoo_case("mobilenet", 32),
                      zoo_case("squeezenet", 32),
                      zoo_case("transformer-tiny", 4)),
    [](const auto &info) {
        std::string name = info.param.model + "_b" +
                           std::to_string(info.param.batch);
        std::replace(name.begin(), name.end(), '-', '_');
        return name;
    });

}  // namespace
}  // namespace pinpoint
