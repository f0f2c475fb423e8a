#include "api/study.h"

#include <utility>

#include "analysis/ati.h"
#include "analysis/breakdown.h"
#include "analysis/iteration.h"
#include "analysis/timeline.h"
#include "api/workload.h"
#include "core/check.h"
#include "core/once.h"
#include "relief/strategy_planner.h"
#include "runtime/data_parallel.h"
#include "runtime/request_stream.h"
#include "runtime/session.h"
#include "sim/device_spec.h"
#include "swap/executor.h"
#include "swap/planner.h"
#include "trace/recorder.h"

namespace pinpoint {
namespace api {

/**
 * One slot per facet: a core OnceFlag guard plus storage. Facet
 * accessors are const — the cache is an implementation detail of
 * "computed lazily", not observable state — so every slot lives
 * behind the Study's facets_ pointer and is written exactly once.
 */
struct Study::Facets {
    OnceFlag atis_once;
    std::vector<analysis::AtiSample> atis;

    OnceFlag ati_summary_once;
    analysis::AtiStats ati_summary;

    OnceFlag breakdown_once;
    analysis::BreakdownResult breakdown;

    OnceFlag swap_plan_once;
    swap::SwapPlanReport swap_plan;

    OnceFlag swap_execution_once;
    swap::SwapExecutionResult swap_execution;

    OnceFlag relief_once;
    std::array<relief::ReliefReport, relief::kNumStrategies>
        relief_all;
};

Study::~Study() = default;
Study::Study(Study &&) noexcept = default;
Study &Study::operator=(Study &&) noexcept = default;

Study::Study(WorkloadSpec spec, runtime::SessionResult result,
             StudyOptions options)
    : spec_(std::move(spec)),
      device_(sim::device_spec_by_name(spec_.device)),
      options_(std::move(options)), result_(std::move(result)),
      facets_(std::make_unique<Facets>())
{
}

Study::Study(WorkloadSpec spec, runtime::SessionResult result,
             const sim::DeviceSpec &device, StudyOptions options)
    : spec_(std::move(spec)), device_(device),
      options_(std::move(options)), result_(std::move(result)),
      facets_(std::make_unique<Facets>())
{
    // No preset resolution: spec.device may be any descriptive
    // string here, the facets price @p device exactly.
}

Study::Study(WorkloadSpec spec, runtime::DataParallelResult result,
             StudyOptions options)
    : spec_(std::move(spec)),
      device_(sim::device_spec_by_name(spec_.device)),
      options_(std::move(options)),
      dp_(std::make_unique<runtime::DataParallelResult>(
          std::move(result))),
      facets_(std::make_unique<Facets>())
{
}

Study::Study(WorkloadSpec spec, runtime::InferenceResult result,
             StudyOptions options)
    : spec_(std::move(spec)),
      device_(sim::device_spec_by_name(spec_.device)),
      options_(std::move(options)),
      inf_(std::make_unique<runtime::InferenceResult>(
          std::move(result))),
      facets_(std::make_unique<Facets>())
{
}

Study
Study::run(const WorkloadSpec &spec, StudyOptions options)
{
    spec.validate();
    if (spec.mode == runtime::SessionMode::kInfer)
        return Study(spec,
                     runtime::run_inference(spec.build(),
                                            spec.inference_config()),
                     std::move(options));
    if (spec.devices > 1)
        return Study(spec,
                     runtime::run_data_parallel(
                         spec.build(), spec.data_parallel_config()),
                     std::move(options));
    return Study(spec,
                 runtime::run_training(spec.build(),
                                       spec.session_config()),
                 std::move(options));
}

const runtime::SessionResult &
Study::result() const
{
    if (inf_)
        return inf_->session;
    return dp_ ? dp_->session : result_;
}

const runtime::InferenceResult &
Study::inference_result() const
{
    PP_CHECK(inf_ != nullptr,
             "training study has no serving result (spec mode = "
                 << runtime::session_mode_name(spec_.mode) << ")");
    return *inf_;
}

const runtime::DataParallelResult &
Study::data_parallel_result() const
{
    PP_CHECK(dp_ != nullptr,
             "single-device study has no data-parallel result "
             "(spec devices = " << spec_.devices << ")");
    return *dp_;
}

Study
Study::from_trace(trace::TraceRecorder trace,
                  const sim::DeviceSpec &device, StudyOptions options)
{
    runtime::SessionResult result;
    result.trace = std::move(trace);
    // Synthetic display-only spec: an empty model marks the study
    // as offline, so spec()/id() can never mislabel the trace as a
    // concrete workload; the device string is the nearest preset.
    WorkloadSpec spec;
    spec.model = "";
    const std::string preset = sim::device_preset_name(device);
    spec.device = preset.empty() ? device.name : preset;
    return Study(std::move(spec), std::move(result), device,
                 std::move(options));
}

const analysis::Timeline &
Study::timeline() const
{
    // The view's cached sub-index: the one timeline build per run.
    return result().view().timeline();
}

std::size_t
Study::peak_occupancy_bytes() const
{
    return result().view().timeline().peak_bytes();
}

const std::vector<analysis::AtiSample> &
Study::atis() const
{
    facets_->atis_once.call([&] {
        facets_->atis = analysis::compute_atis(result().view());
    });
    return facets_->atis;
}

const analysis::AtiStats &
Study::ati_summary() const
{
    facets_->ati_summary_once.call([&] {
        facets_->ati_summary =
            analysis::ati_stats(result().view().timeline());
    });
    return facets_->ati_summary;
}

const analysis::BreakdownResult &
Study::breakdown() const
{
    facets_->breakdown_once.call([&] {
        facets_->breakdown =
            analysis::occupation_breakdown(result().view());
    });
    return facets_->breakdown;
}

const analysis::IterationPattern &
Study::iteration_pattern() const
{
    return result().view().iteration_pattern();
}

const swap::SwapPlanReport &
Study::swap_plan() const
{
    facets_->swap_plan_once.call([&] {
        PP_CHECK(!result().trace.empty(),
                 "swap planning needs a recorded trace (run with "
                 "record_trace = true)");
        facets_->swap_plan =
            swap::SwapPlanner(
                runtime::fill_swap_link(options_.swap, device_))
                .plan(result().view());
    });
    return facets_->swap_plan;
}

const swap::SwapExecutionResult &
Study::swap_execution() const
{
    facets_->swap_execution_once.call([&] {
        // Executes the cached plan itself, so the plan a caller
        // prints and the schedule it exports are one object.
        const swap::SwapPlanReport &plan = swap_plan();
        facets_->swap_execution = swap::execute_plan(
            result().view(), plan,
            runtime::fill_link_bandwidth(options_.swap.link, device_));
    });
    return facets_->swap_execution;
}

const std::array<relief::ReliefReport, relief::kNumStrategies> &
Study::relief_all() const
{
    facets_->relief_once.call([&] {
        PP_CHECK(!result().trace.empty(),
                 "relief planning needs a recorded trace (run with "
                 "record_trace = true)");
        relief::StrategyOptions opts = options_.relief;
        opts.link = runtime::fill_link_bandwidth(opts.link, device_);
        // Arm the peer mechanism from the spec's topology unless the
        // caller configured one explicitly — the one place the
        // devices axis reaches the relief planner.
        if (dp_ && !opts.peer_available()) {
            opts.devices = dp_->devices;
            opts.interconnect = dp_->interconnect;
        }
        // Serving studies plan against a per-request latency SLO,
        // not a per-iteration budget: default it to the stream's
        // steady-state p50 latency unless the caller set one.
        if (inf_ && opts.latency_budget_ns == 0)
            opts.latency_budget_ns = inf_->latency_p50;
        facets_->relief_all =
            relief::StrategyPlanner(opts).plan_all(result().view());
    });
    return facets_->relief_all;
}

const relief::ReliefReport &
Study::relief(relief::Strategy strategy) const
{
    return relief_all()[static_cast<std::size_t>(strategy)];
}

}  // namespace api
}  // namespace pinpoint
