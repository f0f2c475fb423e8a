/**
 * @file
 * api::Study: the run artifact. Facets must equal the underlying
 * analyses computed directly (caching changes cost, never results),
 * be computed exactly once per Study, and be safe to hammer from
 * many threads — the property the sweep worker pool relies on.
 */
#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "analysis/ati.h"
#include "analysis/breakdown.h"
#include "analysis/stats.h"
#include "analysis/swap_model.h"
#include "analysis/timeline.h"
#include "analysis/trace_view.h"
#include "api/study.h"
#include "core/check.h"
#include "nn/models.h"
#include "relief/strategy_planner.h"
#include "runtime/session.h"
#include "sim/device_spec.h"
#include "support/occupancy_oracle.h"
#include "swap/executor.h"
#include "swap/planner.h"
#include "sweep/driver.h"
#include "sweep/scenario.h"
#include "trace/csv.h"
#include "trace/event.h"
#include "trace/recorder.h"

namespace pinpoint {
namespace api {
namespace {

WorkloadSpec
small_spec()
{
    WorkloadSpec spec;
    spec.model = "mlp";
    spec.batch = 32;
    spec.iterations = 2;
    return spec;
}

TEST(Study, FacetsEqualDirectComputation)
{
    const Study study = Study::run(small_spec());

    // A fresh view reproduces what the pre-refactor direct
    // computation did: sharing one TraceView changes cost, never
    // results.
    const analysis::TraceView fresh(study.trace());
    const analysis::Timeline &direct_timeline = fresh.timeline();
    EXPECT_EQ(study.timeline().blocks().size(),
              direct_timeline.blocks().size());
    EXPECT_EQ(study.timeline().end(), direct_timeline.end());

    const auto direct_atis = analysis::compute_atis(fresh);
    ASSERT_EQ(study.atis().size(), direct_atis.size());
    for (std::size_t i = 0; i < direct_atis.size(); ++i) {
        EXPECT_EQ(study.atis()[i].block, direct_atis[i].block);
        EXPECT_EQ(study.atis()[i].interval, direct_atis[i].interval);
    }
    const auto direct_summary = analysis::summarize(
        analysis::ati_microseconds(direct_atis));
    EXPECT_EQ(study.ati_summary().count, direct_summary.count);
    EXPECT_EQ(study.ati_summary().median, direct_summary.median);

    const auto direct_breakdown =
        analysis::occupation_breakdown(fresh);
    EXPECT_EQ(study.breakdown().peak_total(),
              direct_breakdown.peak_total());
    EXPECT_EQ(study.breakdown().at_peak, direct_breakdown.at_peak);
}

TEST(Study, OccupancyFacetAgreesWithBreakdownPeak)
{
    const Study study = Study::run(small_spec());
    // Three independent peak computations — the occupancy-edge
    // walk, the breakdown replay and a full sort of the recorder's
    // edges — must land on the same bytes.
    EXPECT_EQ(study.peak_occupancy_bytes(),
              study.breakdown().peak_total());
    EXPECT_EQ(study.peak_occupancy_bytes(),
              test_support::peak_occupancy(
                  test_support::sorted_edges_oracle(study.trace())));
}

TEST(Study, SwapExecutionExecutesTheCachedPlan)
{
    // The execution facet runs the plan facet's own object: one
    // executed swap per planned decision, gap for gap, measured from
    // the plan's original peak, and the plan facet still answers
    // with that same object.
    const Study study = Study::run(small_spec());
    const swap::SwapPlanReport &plan = study.swap_plan();
    const swap::SwapExecutionResult &exec = study.swap_execution();
    EXPECT_EQ(&study.swap_plan(), &plan);
    ASSERT_EQ(exec.swaps.size(), plan.decisions.size());
    const std::size_t original_peak = study.peak_occupancy_bytes();
    ASSERT_LE(exec.new_peak_bytes, original_peak);
    EXPECT_EQ(swap::peak_saving(original_peak, exec.new_peak_bytes),
              original_peak - exec.new_peak_bytes);
    for (std::size_t i = 0; i < plan.decisions.size(); ++i) {
        const swap::SwapDecision &d = plan.decisions[i];
        const swap::ExecutedSwap &s = exec.swaps[i];
        EXPECT_GE(s.out_start, d.gap_start);
        EXPECT_EQ(s.stall, s.in_end > d.gap_end ? s.in_end - d.gap_end
                                                : 0u);
    }
}

TEST(Study, SwapAndReliefFacetsEqualDirectPlanning)
{
    // resnet18 swaps under contention, so the measured stall the
    // comparison covers is not zero.
    WorkloadSpec spec = small_spec();
    spec.model = "resnet18";
    spec.batch = 16;
    const Study study = Study::run(spec);
    const analysis::TraceView &view = study.view();
    const analysis::LinkBandwidth link{study.device().d2h_bw_bps,
                                       study.device().h2d_bw_bps};

    // The planners and the executor called directly on the device's
    // link: the facets fill that link from the device themselves.
    swap::PlannerOptions swap_options;
    swap_options.link = link;
    const swap::SwapPlanReport plan =
        swap::SwapPlanner(swap_options).plan(view);
    const swap::SwapExecutionResult exec =
        swap::execute_plan(view, plan, link);
    ASSERT_EQ(study.swap_plan().decisions.size(), plan.decisions.size());
    EXPECT_GT(plan.decisions.size(), 0u);
    EXPECT_EQ(study.swap_plan().peak_reduction_bytes,
              plan.peak_reduction_bytes);
    EXPECT_EQ(swap::totals_of(study.swap_plan()).overhead,
              swap::totals_of(plan).overhead);
    EXPECT_GT(exec.measured_stall, 0u);
    EXPECT_EQ(study.swap_execution().measured_stall, exec.measured_stall);
    EXPECT_EQ(study.swap_execution().new_peak_bytes, exec.new_peak_bytes);
    EXPECT_EQ(study.swap_execution().queue_delay, exec.queue_delay);

    relief::StrategyOptions relief_options;
    relief_options.link = link;
    const auto direct_relief =
        relief::StrategyPlanner(relief_options).plan_all(view);
    for (int i = 0; i < relief::kNumStrategies; ++i) {
        EXPECT_EQ(study.relief_all()[i].decisions.size(),
                  direct_relief[i].decisions.size());
        EXPECT_EQ(relief::totals_of(study.relief_all()[i]).covered_bytes,
                  relief::totals_of(direct_relief[i]).covered_bytes);
        EXPECT_EQ(study.relief_all()[i].measured_overhead,
                  direct_relief[i].measured_overhead);
        EXPECT_EQ(&study.relief(static_cast<relief::Strategy>(i)),
                  &study.relief_all()[i]);
    }
}

TEST(Study, PlanningFacetsNeedATrace)
{
    runtime::SessionConfig config = small_spec().session_config();
    config.record_trace = false;
    const Study study(small_spec(),
                      runtime::run_training(nn::mlp(), config));
    EXPECT_THROW(study.swap_plan(), Error);
    EXPECT_THROW(study.swap_execution(), Error);
    EXPECT_THROW(study.relief_all(), Error);
}

TEST(Study, FacetsAreComputedOnceAndCached)
{
    const Study study = Study::run(small_spec());
    // Same object on every access — the facet is a cache, not a
    // recomputation.
    EXPECT_EQ(&study.timeline(), &study.timeline());
    EXPECT_EQ(&study.atis(), &study.atis());
    EXPECT_EQ(&study.breakdown(), &study.breakdown());
    EXPECT_EQ(&study.swap_plan(), &study.swap_plan());
    EXPECT_EQ(&study.swap_execution(), &study.swap_execution());
    EXPECT_EQ(&study.relief_all(), &study.relief_all());
    EXPECT_EQ(&study.iteration_pattern(),
              &study.iteration_pattern());
}

TEST(Study, FacetsAreThreadSafe)
{
    const Study study = Study::run(small_spec());
    const std::size_t expected_atis =
        analysis::compute_atis(analysis::TraceView(study.trace()))
            .size();

    std::vector<const void *> seen(16, nullptr);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < seen.size(); ++t) {
        threads.emplace_back([&study, &seen, t] {
            // Touch every facet concurrently; record one address.
            // Half the threads reach the plan through the execution
            // facet that chains into it, half reach it first.
            study.timeline();
            study.breakdown();
            if (t % 2 == 0) {
                study.swap_execution();
                study.swap_plan();
            } else {
                study.swap_plan();
                study.swap_execution();
            }
            study.relief_all();
            seen[t] = &study.atis();
        });
    }
    for (auto &thread : threads)
        thread.join();
    for (const void *address : seen)
        EXPECT_EQ(address, &study.atis());
    EXPECT_EQ(study.atis().size(), expected_atis);
}

/**
 * Block 7 lives twice: first written by a priced forward op and read
 * 1 s later, then, after its free, reallocated under the same id,
 * written by a backward op and read 2 s later. @p second_id renames
 * the second lifetime.
 */
trace::TraceRecorder
reused_id_trace(BlockId second_id)
{
    constexpr std::size_t kMB = 1024 * 1024;
    trace::TraceRecorder r;
    auto record = [&r](TimeNs t, trace::EventKind kind, BlockId block,
                       std::size_t size, const char *op,
                       std::int32_t op_index, Category category) {
        trace::MemoryEvent e;
        e.time = t;
        e.kind = kind;
        e.block = block;
        e.ptr = 0x1000 * (block + 1);
        e.size = size;
        e.tensor = block;
        e.category = category;
        e.op_index = op_index;
        e.op = r.intern(op);
        r.record(e);
    };
    using K = trace::EventKind;
    const Category in = Category::kInput;
    const Category act = Category::kIntermediate;
    record(0, K::kMalloc, 1, 8 * kMB, "", -1, in);
    record(10, K::kMalloc, 7, 64 * kMB, "", -1, act);
    record(20, K::kRead, 1, 8 * kMB, "conv1.forward", 0, in);
    record(120, K::kWrite, 7, 64 * kMB, "conv1.forward", 0, act);
    record(kNsPerSec + 120, K::kRead, 7, 64 * kMB, "conv1.backward", 5,
           act);
    record(kNsPerSec + 200, K::kFree, 7, 64 * kMB, "", -1, act);
    record(kNsPerSec + 300, K::kMalloc, second_id, 64 * kMB, "", -1,
           act);
    record(kNsPerSec + 400, K::kWrite, second_id, 64 * kMB,
           "fc.backward", 6, act);
    record(3 * kNsPerSec + 400, K::kRead, second_id, 64 * kMB,
           "sgd.step", 7, act);
    record(3 * kNsPerSec + 500, K::kFree, second_id, 64 * kMB, "", -1,
           act);
    record(3 * kNsPerSec + 600, K::kFree, 1, 8 * kMB, "", -1, in);
    return r;
}

TEST(Study, ReliefAndSwapResolveAReusedBlockIdPerLifetime)
{
    const sim::DeviceSpec device = sim::DeviceSpec::titan_x_pascal();
    const Study reused = Study::from_trace(reused_id_trace(7), device);
    const Study renamed = Study::from_trace(reused_id_trace(8), device);

    // Each lifetime's gap is planned and validated against its own
    // lifetime, exactly as when the second lifetime has its own id.
    ASSERT_EQ(reused.swap_plan().decisions.size(), 2u);
    EXPECT_EQ(reused.swap_execution().swaps.size(), 2u);
    EXPECT_EQ(reused.swap_execution().new_peak_bytes,
              renamed.swap_execution().new_peak_bytes);

    const auto &reports = reused.relief_all();
    const auto &expected = renamed.relief_all();
    for (std::size_t s = 0; s < reports.size(); ++s) {
        ASSERT_EQ(reports[s].decisions.size(),
                  expected[s].decisions.size());
        for (std::size_t i = 0; i < reports[s].decisions.size(); ++i) {
            const relief::ReliefDecision &a = reports[s].decisions[i];
            const relief::ReliefDecision &b = expected[s].decisions[i];
            EXPECT_EQ(a.mechanism, b.mechanism);
            EXPECT_EQ(a.gap_start, b.gap_start);
            EXPECT_EQ(reused.view().op_name(a.producer),
                      renamed.view().op_name(b.producer));
        }
        EXPECT_EQ(reports[s].new_peak_bytes, expected[s].new_peak_bytes);
    }

    // Only the first lifetime has a forward producer: the second
    // must not inherit its recompute price.
    const relief::ReliefReport &recompute = reports[static_cast<
        std::size_t>(relief::Strategy::kRecomputeOnly)];
    ASSERT_EQ(recompute.decisions.size(), 1u);
    EXPECT_EQ(recompute.decisions[0].gap_start, 120u);
    EXPECT_EQ(reused.view().op_name(recompute.decisions[0].producer),
              "conv1.forward");
    EXPECT_EQ(recompute.decisions[0].overhead, 100u);
}

TEST(Study, MoveCarriesTheCache)
{
    Study study = Study::run(small_spec());
    const analysis::BreakdownResult *breakdown = &study.breakdown();
    Study moved = std::move(study);
    EXPECT_EQ(&moved.breakdown(), breakdown);
}

TEST(Study, DeviceOverloadHonorsCustomSpecs)
{
    WorkloadSpec spec = small_spec();
    sim::DeviceSpec custom = sim::DeviceSpec::titan_x_pascal();
    custom.name = "titan-x-half-link";
    custom.d2h_bw_bps /= 2;
    custom.h2d_bw_bps /= 2;
    auto session =
        runtime::run_training(spec.build(), spec.session_config());
    // spec.device may be any descriptive string with the device
    // overload — it is display-only and never preset-resolved.
    spec.device = "my custom half-link card";
    const Study study(spec, std::move(session), custom);
    // The facets must price the custom link, not a preset.
    EXPECT_EQ(study.device().name, "titan-x-half-link");
    EXPECT_EQ(study.device().d2h_bw_bps,
              sim::DeviceSpec::titan_x_pascal().d2h_bw_bps / 2);
    // Link-priced facets work — they never resolve spec.device.
    EXPECT_NO_THROW(study.swap_plan());
    EXPECT_GT(study.peak_occupancy_bytes(), 0u);
}

TEST(Study, FromTraceSupportsOfflineAnalysis)
{
    const Study recorded = Study::run(small_spec());
    trace::TraceRecorder copy = recorded.trace();
    const Study offline = Study::from_trace(
        std::move(copy), sim::DeviceSpec::titan_x_pascal());
    EXPECT_EQ(offline.atis().size(), recorded.atis().size());
    EXPECT_EQ(offline.breakdown().peak_total(),
              recorded.breakdown().peak_total());
    EXPECT_EQ(offline.device().name,
              sim::DeviceSpec::titan_x_pascal().name);
    // The synthetic spec is marked: offline traces never
    // masquerade as a named workload.
    EXPECT_EQ(offline.spec().model, "");
}

/** @p got's four fields equal @p want's, exactly. */
void
expect_same_summary(const analysis::AtiStats &got,
                    const analysis::SummaryStats &want)
{
    EXPECT_EQ(got.count, want.count);
    EXPECT_EQ(got.median, want.median);
    EXPECT_EQ(got.p90, want.p90);
    EXPECT_EQ(got.max, want.max);
}

TEST(Study, AtiSummaryEqualsSummarizingTheSamples)
{
    WorkloadSpec serving = small_spec();
    serving.mode = runtime::SessionMode::kInfer;
    serving.requests = 16;
    for (const WorkloadSpec &spec : {small_spec(), serving}) {
        SCOPED_TRACE(spec.to_string());
        const Study study = Study::run(spec);
        const analysis::TraceView fresh(study.trace());
        const auto samples = analysis::compute_atis(fresh);
        ASSERT_FALSE(samples.empty());
        expect_same_summary(
            study.ati_summary(),
            analysis::summarize(analysis::ati_microseconds(samples)));

        // A trace reloaded from its CSV export summarizes the same.
        std::stringstream csv;
        trace::write_csv(study.trace(), csv);
        const Study offline = Study::from_trace(
            trace::read_csv(csv), sim::DeviceSpec::titan_x_pascal());
        expect_same_summary(
            offline.ati_summary(),
            analysis::summarize(analysis::ati_microseconds(samples)));

        // The sweep row counts the samples it no longer builds.
        sweep::Scenario scenario;
        static_cast<WorkloadSpec &>(scenario) = spec;
        const sweep::ScenarioResult row = sweep::run_scenario(scenario);
        ASSERT_EQ(row.status, sweep::ScenarioStatus::kOk) << row.error;
        EXPECT_EQ(row.ati_count, study.atis().size());
        EXPECT_EQ(row.ati_median_us, study.ati_summary().median);
    }
}

TEST(Study, AtiSummaryRejectsAReadBeforeItsMalloc)
{
    trace::TraceRecorder r;
    trace::MemoryEvent e;
    e.block = 9;
    e.size = 512;
    e.kind = trace::EventKind::kRead;
    r.record(e);
    e.time = 10;
    e.kind = trace::EventKind::kMalloc;
    r.record(e);
    e.time = 20;
    e.kind = trace::EventKind::kRead;
    r.record(e);
    const Study study = Study::from_trace(
        std::move(r), sim::DeviceSpec::titan_x_pascal());
    // The same typed error as every Timeline-backed facet.
    EXPECT_THROW(study.ati_summary(), Error);
    EXPECT_THROW(study.timeline(), Error);
}

TEST(Study, StudyOptionsReachTheFacets)
{
    StudyOptions opts;
    opts.swap.min_block_bytes = 1;
    opts.swap.allow_overhead = true;
    const Study aggressive = Study::run(small_spec(), opts);
    const Study conservative = Study::run(small_spec());
    // A 1-byte threshold with overhead allowed can only widen the
    // plan relative to the defaults.
    EXPECT_GE(aggressive.swap_plan().decisions.size(),
              conservative.swap_plan().decisions.size());
}

TEST(Study, RunValidatesTheSpec)
{
    WorkloadSpec bad;
    bad.model = "lenet";
    EXPECT_THROW(Study::run(bad), UsageError);
}

TEST(Study, SingleDeviceStudiesHaveNoDataParallelSurface)
{
    const Study study = Study::run(small_spec());
    EXPECT_FALSE(study.data_parallel());
    EXPECT_EQ(study.devices(), 1);
    EXPECT_DOUBLE_EQ(study.scaling_efficiency(), 1.0);
    EXPECT_DOUBLE_EQ(study.interconnect_busy_fraction(), 0.0);
    EXPECT_EQ(study.allreduce_time(), 0);
    EXPECT_EQ(study.allreduce_stall(), 0);
    EXPECT_THROW(study.data_parallel_result(), Error);
}

TEST(Study, DataParallelStudyProjectsTheSimulatedReplica)
{
    WorkloadSpec spec = small_spec();
    spec.devices = 2;
    spec.topology = "nvlink";
    const Study study = Study::run(spec);

    ASSERT_TRUE(study.data_parallel());
    EXPECT_EQ(study.devices(), 2);
    const runtime::DataParallelResult &dp =
        study.data_parallel_result();
    EXPECT_EQ(dp.devices, 2);
    // result() is the one simulated replica, standing for both
    // devices: every single-device facet (timeline, ATI, swap,
    // relief) analyzes it unchanged, and it is the trace one device
    // records on its own.
    EXPECT_EQ(&study.result(), &dp.session);
    const Study single = Study::run(small_spec());
    EXPECT_EQ(study.trace().size(), single.trace().size());
    EXPECT_EQ(study.result().end_time, single.result().end_time);

    EXPECT_GT(study.allreduce_time(), 0);
    EXPECT_GT(study.scaling_efficiency(), 0.0);
    EXPECT_LT(study.scaling_efficiency(), 1.0);
    EXPECT_DOUBLE_EQ(study.scaling_efficiency(),
                     dp.scaling_efficiency());
    EXPECT_GT(study.interconnect_busy_fraction(), 0.0);

    // The relief facet is armed with the topology: the peer-only
    // report is available on a two-device study.
    EXPECT_TRUE(study.relief(relief::Strategy::kPeerOnly).available);
    EXPECT_FALSE(
        single.relief(relief::Strategy::kPeerOnly).available);
}

TEST(Study, DataParallelSpecsRoundTripThroughTheRunner)
{
    // The spec is the single source of the topology: id() carries
    // the axis and the study's DP result matches a direct
    // run_data_parallel with the same config.
    WorkloadSpec spec = small_spec();
    spec.devices = 2;
    spec.topology = "pcie";
    EXPECT_EQ(spec.id(), "mlp/b32/caching/titan-x/dp2/pcie");
    const Study study = Study::run(spec);
    const auto direct = runtime::run_data_parallel(
        spec.build(), spec.data_parallel_config());
    EXPECT_EQ(study.data_parallel_result().allreduce_time,
              direct.allreduce_time);
    EXPECT_EQ(study.data_parallel_result().gradient_bytes,
              direct.gradient_bytes);
    EXPECT_EQ(study.result().end_time, direct.session.end_time);
}

}  // namespace
}  // namespace api
}  // namespace pinpoint
