/**
 * @file
 * api::Study — the run artifact of one characterization. A Study
 * owns the runtime::SessionResult of a workload and exposes every
 * derived analysis the repo computes — the block timeline and
 * occupancy edges/peak, ATI samples and statistics, the occupation
 * breakdown, the iterative-pattern verdict, the swap plan and its
 * shared-link execution, and the unified-relief reports — as *lazy,
 * computed-once, cached facets*. The Study is the one planning
 * layer: its swap and relief facets call the swap and relief
 * planners themselves, each once per run.
 *
 * Every facet is a projection of the result's single
 * analysis::TraceView (view()): the timeline, producer index, and
 * iteration pattern are the view's own cached sub-indices, and the
 * swap/relief facets plan against them — one trace index per run,
 * shared across all five layers.
 *
 * Invariants the layers above rely on:
 *
 *   - Each facet is computed at most once per Study, on first
 *     access, guarded by a core OnceFlag per facet — concurrent
 *     accessors (the sweep worker pool) share one computation and
 *     one cached value.
 *   - Facet values are identical to calling the underlying analysis
 *     directly on the same trace with the Study's options: caching
 *     changes cost, never results (asserted by the migrated benches
 *     and tests/api/test_study.cpp).
 *   - Facets never mutate the session result; a Study is
 *     const-usable from many threads.
 */
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <vector>

#include "analysis/ati.h"
#include "analysis/breakdown.h"
#include "analysis/iteration.h"
#include "analysis/timeline.h"
#include "api/workload.h"
#include "core/types.h"
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

/** Facet knobs fixed at Study construction. */
struct StudyOptions {
    /**
     * Swap plan and execution facet options. Zero link bandwidths
     * (the default) are filled from the spec's device.
     */
    swap::PlannerOptions swap;
    /** Relief facet options; zero link bandwidths filled likewise. */
    relief::StrategyOptions relief;
};

/**
 * One workload's run artifact: the session result plus lazily
 * computed, cached analyses. Movable, not copyable (facets are
 * computed-once per artifact; copying would fork the cache).
 */
class Study
{
  public:
    /**
     * Wraps an already-run session for @p spec. The facet device
     * is resolved from spec.device — for sessions run on a custom
     * (non-preset) DeviceSpec, use the device overload below or
     * the swap/relief facets would price the wrong link.
     */
    Study(WorkloadSpec spec, runtime::SessionResult result,
          StudyOptions options = {});

    /**
     * Same, but with the exact device the session ran on — the
     * constructor for custom DeviceSpecs. spec.device stays
     * display-only.
     */
    Study(WorkloadSpec spec, runtime::SessionResult result,
          const sim::DeviceSpec &device, StudyOptions options = {});

    /**
     * Wraps an already-run data-parallel result for @p spec. The
     * single-device facets below project its one simulated replica,
     * which stands for every device; the data-parallel facets read
     * the aggregate.
     */
    Study(WorkloadSpec spec, runtime::DataParallelResult result,
          StudyOptions options = {});

    /**
     * Wraps an already-run serving result for @p spec. The
     * single-device facets below project the serving session's
     * continuous trace; the serving facets read the request records.
     */
    Study(WorkloadSpec spec, runtime::InferenceResult result,
          StudyOptions options = {});

    /**
     * Runs @p spec's session — a serving request stream when
     * spec.mode is infer, data-parallel training when spec.devices
     * > 1, single-device training otherwise — and wraps the result.
     * @throws Error / DeviceOomError when the workload cannot run.
     */
    static Study run(const WorkloadSpec &spec,
                     StudyOptions options = {});

    /**
     * Wraps a bare trace (e.g. reloaded from CSV) for offline
     * analysis on @p device. The session-summary fields of result()
     * are empty and spec() is synthetic — spec().model is "" so an
     * offline trace can never masquerade as a named workload —
     * while every trace-derived facet works.
     */
    static Study from_trace(trace::TraceRecorder trace,
                            const sim::DeviceSpec &device,
                            StudyOptions options = {});

    // Defined in study.cc where Facets is complete.
    ~Study();
    Study(Study &&) noexcept;
    Study &operator=(Study &&) noexcept;
    Study(const Study &) = delete;
    Study &operator=(const Study &) = delete;

    /** @return the workload this study ran. */
    const WorkloadSpec &spec() const { return spec_; }

    /** @return the resolved device the workload ran on. */
    const sim::DeviceSpec &device() const { return device_; }

    /**
     * @return the owned session result — the simulated replica's
     * for a data-parallel study (it stands for every device, so it
     * is *the* single-device view of the run).
     */
    const runtime::SessionResult &result() const;

    /** @return the recorded trace. */
    const trace::TraceRecorder &trace() const
    {
        return result().trace;
    }

    /**
     * @return the run's shared immutable TraceView — the one trace
     * snapshot every facet below projects from. Useful directly for
     * build_stats() asserts and for analyses without a facet.
     */
    const analysis::TraceView &view() const
    {
        return result().view();
    }

    // --- data-parallel surface ------------------------------------

    /** @return true when the study wraps a multi-replica run. */
    bool data_parallel() const { return dp_ != nullptr; }

    /**
     * @return the aggregate data-parallel result (the simulated
     * replica's session, scheduled all-reduces, scaling metrics).
     * @throws Error on a single-device study.
     */
    const runtime::DataParallelResult &data_parallel_result() const;

    /** @return replica count (1 for single-device studies). */
    int devices() const { return dp_ ? dp_->devices : 1; }

    /** @return DataParallelResult::scaling_efficiency; 1.0 if not DP. */
    double scaling_efficiency() const
    {
        return dp_ ? dp_->scaling_efficiency() : 1.0;
    }

    /** @return mean peer-link occupancy; 0.0 when not DP. */
    double interconnect_busy_fraction() const
    {
        return dp_ ? dp_->interconnect_busy_fraction : 0.0;
    }

    /** @return steady-state exposed all-reduce time; 0 when not DP. */
    TimeNs allreduce_time() const
    {
        return dp_ ? dp_->allreduce_time : 0;
    }

    /** @return DataParallelResult::allreduce_stall; 0 when not DP. */
    TimeNs allreduce_stall() const
    {
        return dp_ ? dp_->allreduce_stall() : 0;
    }

    // --- serving surface ------------------------------------------

    /** @return true when the study wraps a request-stream run. */
    bool inference() const { return inf_ != nullptr; }

    /**
     * @return the serving result (request records, latency
     * percentiles, arrival process). @throws Error on a training
     * study.
     */
    const runtime::InferenceResult &inference_result() const;

    /** @return replayed request count (0 for training studies). */
    int requests() const
    {
        return inf_ ? static_cast<int>(inf_->requests.size()) : 0;
    }

    /** @return steady-state p50 request latency; 0 when training. */
    TimeNs latency_p50() const
    {
        return inf_ ? inf_->latency_p50 : 0;
    }

    /** @return steady-state p90 request latency; 0 when training. */
    TimeNs latency_p90() const
    {
        return inf_ ? inf_->latency_p90 : 0;
    }

    /** @return steady-state p99 request latency; 0 when training. */
    TimeNs latency_p99() const
    {
        return inf_ ? inf_->latency_p99 : 0;
    }

    /** @return worst steady-state latency; 0 when training. */
    TimeNs latency_max() const
    {
        return inf_ ? inf_->latency_max : 0;
    }

    // --- lazy cached facets ---------------------------------------

    /** @return the per-block timeline (Fig. 2 reconstruction) —
     * the view's cached sub-index. */
    const analysis::Timeline &timeline() const;

    /** @return the occupancy peak: the original peak of every plan. */
    std::size_t peak_occupancy_bytes() const;

    /** @return every ATI sample, in trace order. */
    const std::vector<analysis::AtiSample> &atis() const;

    /**
     * @return the ATI count, median, p90 and max in microseconds,
     * equal to summarizing atis() in each of them
     * (analysis::ati_stats): the intervals come from the view's
     * shared Timeline, so the sample vector is never built for them.
     * @throws Error, as every Timeline-backed facet, when the trace
     * is inconsistent (e.g. a read before its block's malloc).
     */
    const analysis::AtiStats &ati_summary() const;

    /** @return the occupation breakdown at peak (Figs. 5-7). */
    const analysis::BreakdownResult &breakdown() const;

    /** @return the iterative-pattern verdict (Fig. 2 takeaway). */
    const analysis::IterationPattern &iteration_pattern() const;

    /**
     * @return the Eq. 1 swap plan alone — no link execution, so
     * plan-only consumers never pay for measurement; swap::totals_of
     * sums it.
     * @throws Error when the study has no trace.
     */
    const swap::SwapPlanReport &swap_plan() const;

    /**
     * @return swap_plan() executed on a fresh shared PCIe link: the
     * measurement of the one cached plan, decision for decision.
     * @throws Error when the study has no trace.
     */
    const swap::SwapExecutionResult &swap_execution() const;

    /**
     * @return every relief report (swap-only, recompute-only,
     * peer-only, hybrid) planned from one shared trace analysis,
     * indexed by relief::Strategy enumerator order. On multi-device
     * studies the planner's peer mechanism is armed with the spec's
     * topology; on single-device studies the peer-only report is
     * marked unavailable. On serving studies the per-request
     * latency SLO defaults to the stream's steady-state p50 latency
     * unless the caller configured one. relief::totals_of sums each.
     * @throws Error when the study has no trace.
     */
    const std::array<relief::ReliefReport, relief::kNumStrategies> &
    relief_all() const;

    /** @return the relief report for @p strategy. */
    const relief::ReliefReport &relief(relief::Strategy strategy) const;

  private:
    struct Facets;

    WorkloadSpec spec_;
    sim::DeviceSpec device_;
    StudyOptions options_;
    /** Single-device runs only; empty when dp_ holds the result. */
    runtime::SessionResult result_;
    /** Multi-device runs: the aggregate, owning the replica. */
    std::unique_ptr<runtime::DataParallelResult> dp_;
    /** Serving runs: the request stream, owning its session. */
    std::unique_ptr<runtime::InferenceResult> inf_;
    /**
     * Heap-allocated so the Study stays movable: OnceFlag is
     * neither movable nor copyable, and moving a Study must carry
     * its cache, not reset it.
     */
    std::unique_ptr<Facets> facets_;
};

}  // namespace api
}  // namespace pinpoint

