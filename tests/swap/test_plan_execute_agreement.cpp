/**
 * @file
 * Planner ↔ executor agreement property test over the model-zoo
 * registry: every decision the planner emits must execute, plans
 * that are hideable in isolation must be stall-free on an
 * uncontended link, and shared-link (contended) execution must
 * never report *less* stall than the dedicated-link model did.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "nn/model_registry.h"
#include "runtime/session.h"
#include "swap/executor.h"
#include "swap/planner.h"

namespace pinpoint {
namespace swap {
namespace {

/** Per-model singleton executions are capped to bound test time. */
constexpr std::size_t kSoloChecksPerModel = 12;

PlannerOptions
paper_link_options()
{
    PlannerOptions opts;
    const auto spec = sim::DeviceSpec::titan_x_pascal();
    opts.link =
        analysis::LinkBandwidth{spec.d2h_bw_bps, spec.h2d_bw_bps};
    return opts;
}

TEST(PlanExecuteAgreement, EveryZooModelRoundTrips)
{
    for (const auto &entry : nn::model_registry()) {
        SCOPED_TRACE(entry.name);
        runtime::SessionConfig config;
        config.batch = 8;
        config.iterations = 2;
        const auto result =
            runtime::run_training(entry.build(), config);

        const PlannerOptions opts = paper_link_options();
        const auto plan = SwapPlanner(opts).plan(result.view());

        // Every plan() decision passes execute_plan validation.
        const auto exec =
            execute_plan(result.view(), plan, opts.link);
        ASSERT_EQ(exec.swaps.size(), plan.decisions.size());
        EXPECT_LE(exec.new_peak_bytes,
                  result.view().timeline().peak_bytes());

        // Contended execution never under-reports the dedicated
        // model: hideable-only plans predicted zero overhead, so
        // any measured stall is pure link contention.
        EXPECT_GE(exec.measured_stall, totals_of(plan).overhead);
        EXPECT_LE(exec.measured_stall, exec.queue_delay);

        // Hideable decisions are stall-free on an uncontended link
        // (executed alone, nothing else on the wire) — and the
        // shared link never beats the uncontended schedule.
        const std::size_t solo_checks = std::min(
            plan.decisions.size(), kSoloChecksPerModel);
        for (std::size_t i = 0; i < solo_checks; ++i) {
            SwapPlanReport solo;
            solo.decisions.push_back(plan.decisions[i]);
            const auto alone =
                execute_plan(result.view(), solo, opts.link);
            EXPECT_EQ(alone.measured_stall, 0u)
                << "decision " << i
                << " is hideable yet stalls uncontended";
            EXPECT_GE(exec.swaps[i].stall, alone.measured_stall);
            EXPECT_GE(exec.swaps[i].in_end, alone.swaps[0].in_end)
                << "the shared link cannot finish a swap-in "
                   "earlier than a dedicated one";
        }
    }
}

TEST(PlanExecuteAgreement, OverheadPlansAgreeUncontended)
{
    // With allow_overhead the planner predicts per-decision stalls;
    // executed one at a time (no contention) the executor must
    // reproduce each prediction exactly — same rounding helper.
    runtime::SessionConfig config;
    config.batch = 8;
    config.iterations = 2;
    const auto result = runtime::run_training(
        nn::build_model("alexnet-cifar"), config);

    PlannerOptions opts = paper_link_options();
    opts.allow_overhead = true;
    opts.min_block_bytes = 256 * 1024;
    const auto plan = SwapPlanner(opts).plan(result.view());
    ASSERT_FALSE(plan.decisions.empty());

    TimeNs solo_stall_sum = 0;
    for (const auto &d : plan.decisions) {
        SwapPlanReport solo;
        solo.decisions.push_back(d);
        const auto alone =
            execute_plan(result.view(), solo, opts.link);
        EXPECT_EQ(alone.measured_stall, d.overhead)
            << "block " << d.block;
        solo_stall_sum += alone.measured_stall;
    }
    EXPECT_EQ(solo_stall_sum, totals_of(plan).overhead);

    // And the contended run is bounded below by that prediction.
    const auto exec = execute_plan(result.view(), plan, opts.link);
    EXPECT_GE(exec.measured_stall, totals_of(plan).overhead);
}

}  // namespace
}  // namespace swap
}  // namespace pinpoint
