/**
 * @file
 * Sweep driver: deterministic results independent of worker count,
 * aggregation math consistent with a direct runtime::Session run,
 * and graceful per-scenario failure capture.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <mutex>
#include <set>
#include <vector>

#include "analysis/ati.h"
#include "analysis/stats.h"
#include "nn/model_registry.h"
#include "sweep/driver.h"
#include "sweep/export.h"

namespace pinpoint {
namespace sweep {
namespace {

/** Small but heterogeneous grid used by the determinism tests. */
std::vector<Scenario>
small_grid()
{
    SweepGrid grid;
    grid.models = {"mlp", "alexnet-cifar", "transformer-tiny"};
    grid.batches = {16, 32};
    grid.allocators = {runtime::AllocatorKind::kCaching,
                       runtime::AllocatorKind::kDirect};
    grid.iterations = 4;
    return expand_grid(grid);
}

TEST(SweepDriver, SerialAndParallelAreByteIdentical)
{
    const auto scenarios = small_grid();

    SweepOptions serial;
    serial.jobs = 1;
    const auto report1 = run_sweep(scenarios, serial);

    SweepOptions parallel;
    parallel.jobs = 8;
    const auto report8 = run_sweep(scenarios, parallel);

    EXPECT_EQ(sweep_csv_string(report1), sweep_csv_string(report8));
    EXPECT_EQ(sweep_json_string(report1), sweep_json_string(report8));
}

TEST(SweepDriver, ResultsStayInGridOrderUnderParallelism)
{
    const auto scenarios = small_grid();
    SweepOptions options;
    options.jobs = 4;
    const auto report = run_sweep(scenarios, options);
    ASSERT_EQ(report.results.size(), scenarios.size());
    for (std::size_t i = 0; i < scenarios.size(); ++i)
        EXPECT_EQ(report.results[i].scenario.id(), scenarios[i].id());
}

TEST(SweepDriver, AggregationMatchesDirectSession)
{
    Scenario s;
    s.model = "alexnet-cifar";
    s.batch = 32;
    s.iterations = 5;
    const auto result = run_scenario(s);
    ASSERT_EQ(result.status, ScenarioStatus::kOk) << result.error;

    const auto direct = runtime::run_training(
        nn::build_model(s.model), s.session_config());

    EXPECT_EQ(result.peak_total_bytes, direct.usage.peak_total);
    EXPECT_EQ(result.peak_input_bytes + result.peak_parameter_bytes +
                  result.peak_intermediate_bytes,
              direct.usage.peak_total);
    EXPECT_EQ(result.peak_reserved_bytes, direct.peak_reserved_bytes);
    EXPECT_EQ(result.iteration_time, direct.iteration_time);
    EXPECT_EQ(result.end_time, direct.end_time);
    EXPECT_EQ(result.alloc_count, direct.alloc_stats.alloc_count);
    EXPECT_EQ(result.event_count, direct.trace.size());

    const auto atis = analysis::compute_atis(direct.view());
    EXPECT_EQ(result.ati_count, atis.size());
    const auto stats =
        analysis::summarize(analysis::ati_microseconds(atis));
    EXPECT_DOUBLE_EQ(result.ati_median_us, stats.median);
    EXPECT_DOUBLE_EQ(result.ati_p90_us, stats.p90);
}

TEST(SweepDriver, OomIsCapturedPerScenario)
{
    // vgg16 cannot train at batch 64 on a 256 MB device.
    Scenario s;
    s.model = "vgg16";
    s.batch = 64;
    s.device = "tiny";
    const auto result = run_scenario(s);
    EXPECT_EQ(result.status, ScenarioStatus::kOom);
    EXPECT_FALSE(result.error.empty());
    EXPECT_EQ(result.peak_total_bytes, 0u);
}

TEST(SweepDriver, FailuresAreCountedNotThrown)
{
    SweepGrid grid;
    grid.models = {"mlp", "vgg16"};
    grid.batches = {64};
    grid.allocators = {runtime::AllocatorKind::kCaching};
    grid.device_presets = {"tiny"};
    SweepOptions options;
    options.jobs = 2;
    const auto report = run_sweep(grid, options);
    ASSERT_EQ(report.results.size(), 2u);
    EXPECT_EQ(report.succeeded, 1u);
    EXPECT_EQ(report.oom, 1u);
    EXPECT_EQ(report.failed, 0u);
    EXPECT_EQ(report.results[0].status, ScenarioStatus::kOk);
    EXPECT_EQ(report.results[1].status, ScenarioStatus::kOom);
}

TEST(SweepDriver, CallbackFiresOncePerScenario)
{
    const auto scenarios = small_grid();
    std::mutex mutex;
    std::multiset<std::string> seen;
    SweepOptions options;
    options.jobs = 4;
    options.on_result = [&](const ScenarioResult &r) {
        std::lock_guard<std::mutex> lock(mutex);
        seen.insert(r.scenario.id());
    };
    run_sweep(scenarios, options);
    EXPECT_EQ(seen.size(), scenarios.size());
    for (const auto &s : scenarios)
        EXPECT_EQ(seen.count(s.id()), 1u) << s.id();
}

TEST(SweepDriver, SwapPlanCanBeDisabled)
{
    Scenario s;
    s.model = "alexnet-cifar";
    s.batch = 32;
    const auto with_plan = run_scenario(s, true);
    const auto without = run_scenario(s, false);
    EXPECT_GT(with_plan.swap_decisions, 0u);
    EXPECT_EQ(without.swap_decisions, 0u);
    EXPECT_EQ(without.swap_peak_reduction_bytes, 0u);
    EXPECT_EQ(without.swap_measured_peak_reduction_bytes, 0u);
    EXPECT_EQ(without.swap_measured_stall_ns, 0u);
    EXPECT_EQ(without.swap_link_busy_fraction, 0.0);
    // Everything else is unchanged.
    EXPECT_EQ(with_plan.peak_total_bytes, without.peak_total_bytes);
    EXPECT_EQ(with_plan.end_time, without.end_time);
}

TEST(SweepDriver, NonPositiveJobsClampToSerial)
{
    std::vector<Scenario> one;
    Scenario s;
    s.model = "mlp";
    one.push_back(s);
    SweepOptions options;
    options.jobs = 0;
    const auto report = run_sweep(one, options);
    EXPECT_EQ(report.jobs, 1);
    EXPECT_EQ(report.succeeded, 1u);
}

/** @return the threads this process runs now, from /proc. */
std::size_t
live_threads()
{
    std::size_t n = 0;
    for ([[maybe_unused]] const auto &task :
         std::filesystem::directory_iterator("/proc/self/task"))
        ++n;
    return n;
}

TEST(SweepDriver, PoolStartsNoMoreWorkersThanPendingScenarios)
{
    if (!std::filesystem::exists("/proc/self/task"))
        GTEST_SKIP() << "needs /proc/self/task to count threads";
    SweepGrid grid;
    grid.models = {"mlp"};
    grid.batches = {8};
    grid.allocators = {runtime::AllocatorKind::kCaching,
                       runtime::AllocatorKind::kDirect};
    grid.iterations = 2;
    const std::vector<Scenario> scenarios = expand_grid(grid);

    const std::size_t before = live_threads();
    std::size_t most = 0;
    SweepOptions options;
    options.jobs = 16;
    // on_result runs on a worker, under the driver's lock.
    options.on_result = [&](const ScenarioResult &) {
        most = std::max(most, live_threads());
    };
    const auto report = run_sweep(scenarios, options);
    EXPECT_EQ(report.jobs, 16) << "the table prints the request";
    EXPECT_EQ(report.succeeded, scenarios.size());
    EXPECT_GT(most, before);
    EXPECT_LE(most, before + scenarios.size());
}

TEST(SubmissionOrder, DescendingCostWithStableTies)
{
    // Same model: cost scales with batch x iterations, so the
    // order must be by that product, descending, grid order on
    // ties.
    std::vector<Scenario> scenarios(4);
    for (auto &s : scenarios)
        s.model = "mlp";
    scenarios[0].batch = 16;
    scenarios[1].batch = 64;
    scenarios[2].batch = 16;
    scenarios[2].iterations = 50;
    scenarios[3].batch = 16;

    std::vector<std::size_t> indices = {0, 1, 2, 3};
    const auto order =
        submission_order(scenarios, indices, {0, 0, 0, 0});
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], 2u);  // 16 * 50 iterations
    EXPECT_EQ(order[1], 1u);  // 64 * 5
    EXPECT_EQ(order[2], 0u);  // tie with 3: grid order
    EXPECT_EQ(order[3], 3u);
}

TEST(SubmissionOrder, CachedWallTimesRefineTheEstimate)
{
    std::vector<Scenario> scenarios(4);
    for (auto &s : scenarios)
        s.model = "mlp";
    scenarios[0].batch = 16;
    scenarios[1].batch = 16;
    scenarios[2].batch = 16;
    scenarios[3].batch = 64;

    // By abstract cost alone, scenario 3 (batch 64) would go
    // first. But scenario 0 *measured* far slower than its
    // abstract twins 1 and 2, and the unhinted scenario 3 is
    // rescaled by the median hinted ratio — so the measurement
    // wins the first slot.
    const std::vector<std::size_t> indices = {0, 1, 2, 3};
    const auto order = submission_order(scenarios, indices,
                                        {800000, 1000, 1200, 0});
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], 0u);
    EXPECT_EQ(order[1], 3u);
    EXPECT_EQ(order[2], 2u);
    EXPECT_EQ(order[3], 1u);
}

TEST(SweepDriver, CostOrderTogglesWithoutChangingBytes)
{
    const auto scenarios = small_grid();
    SweepOptions ordered;
    ordered.jobs = 4;
    ordered.cost_order = true;
    SweepOptions unordered;
    unordered.jobs = 4;
    unordered.cost_order = false;
    EXPECT_EQ(sweep_csv_string(run_sweep(scenarios, ordered)),
              sweep_csv_string(run_sweep(scenarios, unordered)));
}

TEST(SweepDriver, ProgressCallbackCountsToTotal)
{
    const auto scenarios = small_grid();
    SweepOptions options;
    options.jobs = 4;
    std::mutex mutex;
    std::size_t calls = 0;
    std::size_t last_done = 0;
    options.on_progress = [&](const SweepProgress &p) {
        std::lock_guard<std::mutex> lock(mutex);
        ++calls;
        EXPECT_EQ(p.total, scenarios.size());
        last_done = p.done;
    };
    run_sweep(scenarios, options);
    EXPECT_EQ(calls, scenarios.size());
    EXPECT_EQ(last_done, scenarios.size());
}

}  // namespace
}  // namespace sweep
}  // namespace pinpoint
