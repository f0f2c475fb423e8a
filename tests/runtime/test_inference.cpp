/**
 * @file
 * Property tests for the serving workload axis: zoo-wide purity of
 * inference plans (no backward/optimizer work), weight residency
 * across requests, the dtype axis shrinking the footprint, and the
 * byte-reproducibility of the seeded arrival process — the
 * invariants the golden CLI fixtures and the sweep determinism
 * checks lean on.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/iteration.h"
#include "api/study.h"
#include "core/check.h"
#include "api/workload.h"
#include "nn/model_registry.h"
#include "runtime/plan_builder.h"
#include "runtime/request_stream.h"
#include "sweep/export.h"

namespace pinpoint {
namespace runtime {
namespace {

/** Small serving config: batch-4 requests on the default device. */
InferenceConfig
small_config(int requests, ArrivalKind arrival = ArrivalKind::kBursty)
{
    InferenceConfig config;
    config.session.batch = 4;
    config.requests = requests;
    config.arrival = arrival;
    config.seed = arrival_seed("test-stream");
    return config;
}

TEST(Inference, ZooWidePlansHaveNoBackwardOrOptimizerOps)
{
    for (const auto &name : nn::default_zoo_names()) {
        const Plan plan =
            build_inference_plan(nn::build_model(name), 4);
        for (const auto &op : plan.iteration_ops) {
            EXPECT_NE(op.phase, OpPhase::kBackward)
                << name << ": " << op.name;
            EXPECT_NE(op.phase, OpPhase::kOptimizer)
                << name << ": " << op.name;
        }
    }
}

TEST(Inference, ZooWideTracesHaveNoBackwardOrOptimizerEvents)
{
    for (const auto &name : nn::default_zoo_names()) {
        const InferenceResult r =
            run_inference(nn::build_model(name), small_config(3));
        ASSERT_EQ(r.requests.size(), 3u) << name;
        for (const auto &e : r.session.trace.events()) {
            const std::string &op = r.session.trace.op_name(e.op);
            EXPECT_EQ(op.find(".backward"), std::string::npos)
                << name << ": " << op;
            EXPECT_EQ(op.find("optimizer"), std::string::npos)
                << name << ": " << op;
        }
    }
}

TEST(Inference, ParametersStayResidentAcrossRequests)
{
    // Weights upload once at setup and live until teardown: no
    // parameter block is freed before the last request completes.
    const InferenceResult r =
        run_inference(nn::build_model("mlp"), small_config(5));
    const TimeNs last_completion = r.requests.back().completion;
    for (const auto &e : r.session.trace.events()) {
        if (e.kind == trace::EventKind::kFree &&
            e.category == Category::kParameter) {
            EXPECT_GE(e.time, last_completion)
                << "parameter block freed mid-stream at "
                << e.time;
        }
    }
}

TEST(Inference, HalfPrecisionShrinksThePeakZooWide)
{
    for (const auto &name : nn::default_zoo_names()) {
        InferenceConfig config = small_config(2);
        config.session.plan.dtype = DType::kF32;
        const auto f32 =
            run_inference(nn::build_model(name), config);
        config.session.plan.dtype = DType::kF16;
        const auto f16 =
            run_inference(nn::build_model(name), config);
        EXPECT_LT(f16.session.usage.peak_total,
                  f32.session.usage.peak_total)
            << name;
    }
}

TEST(Inference, ArrivalsAreByteReproducible)
{
    // The same config replays the same traffic, record for record.
    const auto a =
        run_inference(nn::build_model("mlp"), small_config(16));
    const auto b =
        run_inference(nn::build_model("mlp"), small_config(16));
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_EQ(a.requests[i].arrival, b.requests[i].arrival) << i;
        EXPECT_EQ(a.requests[i].start, b.requests[i].start) << i;
        EXPECT_EQ(a.requests[i].completion, b.requests[i].completion)
            << i;
    }
    EXPECT_EQ(a.latency_p50, b.latency_p50);
    EXPECT_EQ(a.latency_max, b.latency_max);
}

TEST(Inference, ArrivalKindsProduceDistinctSchedules)
{
    const auto steady = run_inference(
        nn::build_model("mlp"), small_config(8, ArrivalKind::kSteady));
    const auto bursty = run_inference(
        nn::build_model("mlp"), small_config(8, ArrivalKind::kBursty));
    bool differs = false;
    for (std::size_t i = 2; i < steady.requests.size(); ++i)
        if (steady.requests[i].arrival !=
            bursty.requests[i].arrival)
            differs = true;
    EXPECT_TRUE(differs);
}

TEST(Inference, SeedIsDerivedFromTheSpecId)
{
    // arrival_seed is a pure FNV-1a of the key: stable across runs
    // (the fixtures pin it) and sensitive to every byte.
    EXPECT_EQ(arrival_seed("mlp/b8/caching/titan-x/infer/bursty"),
              arrival_seed("mlp/b8/caching/titan-x/infer/bursty"));
    EXPECT_NE(arrival_seed("mlp/b8/caching/titan-x/infer/bursty"),
              arrival_seed("mlp/b8/caching/titan-x/infer/steady"));
    EXPECT_NE(arrival_seed("a"), arrival_seed("b"));
    // Pinned: this value seeds the committed serving outputs.
    EXPECT_EQ(arrival_seed("mlp/b8/caching/titan-x/infer/bursty"),
              4376087951294561188ull);
}

TEST(Inference, RequestsQueueUnderBurstsAndIdleWhenSteady)
{
    // Steady arrivals are spaced beyond the service period: the
    // device keeps up, so every request starts at its arrival.
    const auto steady = run_inference(
        nn::build_model("mlp"), small_config(8, ArrivalKind::kSteady));
    for (std::size_t i = 2; i < steady.requests.size(); ++i)
        EXPECT_EQ(steady.requests[i].start,
                  steady.requests[i].arrival)
            << i;
    // Bursty arrivals pack requests back-to-back: at least one
    // request must wait behind its predecessor.
    const auto bursty = run_inference(
        nn::build_model("mlp"), small_config(8, ArrivalKind::kBursty));
    bool queued = false;
    for (std::size_t i = 2; i < bursty.requests.size(); ++i)
        if (bursty.requests[i].start > bursty.requests[i].arrival)
            queued = true;
    EXPECT_TRUE(queued);
}

TEST(Inference, ContinuousTraceHasNoIterationBoundary)
{
    // Every request is labeled iteration 0 (plus the setup tag):
    // the trace is one steady stream, not an iteration sequence.
    const InferenceResult r =
        run_inference(nn::build_model("mlp"), small_config(4));
    for (const auto &e : r.session.trace.events())
        EXPECT_TRUE(e.iteration == 0 ||
                    e.iteration == trace::kSetupIteration)
            << e.iteration;
}

TEST(Inference, IterationDetectorDegradesGracefully)
{
    // detect_iteration_pattern sees one labeled iteration and no
    // boundary: it must report that honestly (<= 1 iteration,
    // stability defined) instead of inventing a training rhythm.
    api::WorkloadSpec spec;
    spec.model = "mlp";
    spec.batch = 4;
    spec.mode = SessionMode::kInfer;
    spec.requests = 6;
    const api::Study study = api::Study::run(spec);
    ASSERT_TRUE(study.inference());
    const analysis::IterationPattern &pattern =
        study.iteration_pattern();
    EXPECT_LE(pattern.iterations, 1u);
    EXPECT_GE(pattern.signature_stability, 0.0);
    EXPECT_LE(pattern.signature_stability, 1.0);
}

TEST(Inference, StudyServingSurfaceAnswersZerosForTraining)
{
    api::WorkloadSpec spec;
    spec.model = "mlp";
    spec.batch = 4;
    spec.iterations = 2;
    const api::Study study = api::Study::run(spec);
    EXPECT_FALSE(study.inference());
    EXPECT_EQ(study.requests(), 0);
    EXPECT_EQ(study.latency_p50(), 0u);
    EXPECT_EQ(study.latency_max(), 0u);
    EXPECT_THROW(study.inference_result(), Error);
}

TEST(Inference, SweepOverServingAxesIsJobCountInvariant)
{
    // The jobs-8 sweep must export byte-identical reports to the
    // serial one across the mode x dtype grid — the property the CI
    // determinism check enforces end to end.
    sweep::SweepGrid grid;
    grid.models = {"mlp"};
    grid.batches = {4};
    grid.allocators = {AllocatorKind::kCaching};
    grid.modes = {SessionMode::kTrain, SessionMode::kInfer};
    grid.dtypes = {DType::kF32, DType::kF16};
    grid.iterations = 2;
    grid.requests = 4;

    sweep::SweepOptions serial;
    serial.jobs = 1;
    sweep::SweepOptions parallel;
    parallel.jobs = 8;
    const auto a = sweep::run_sweep(grid, serial);
    const auto b = sweep::run_sweep(grid, parallel);
    EXPECT_EQ(sweep::sweep_csv_string(a), sweep::sweep_csv_string(b));
    EXPECT_EQ(sweep::sweep_json_string(a),
              sweep::sweep_json_string(b));
}

}  // namespace
}  // namespace runtime
}  // namespace pinpoint
