/**
 * @file
 * Parallel sweep driver: executes a list of scenarios on a worker
 * pool, each in an isolated runtime::Session, and aggregates every
 * run into one deterministic report. Result order is the scenario
 * (grid-expansion) order, never the completion order, so `--jobs 8`
 * and `--jobs 1` produce byte-identical exports.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/types.h"
#include "sweep/scenario.h"

namespace pinpoint {
namespace sweep {

/** Terminal state of one scenario. */
enum class ScenarioStatus : std::uint8_t {
    kOk,     ///< ran to completion
    kOom,    ///< deterministic simulated-device OOM
    kError,  ///< any other failure (bad config, internal error)
};

/** @return short name ("ok", "oom", "error"). */
const char *scenario_status_name(ScenarioStatus status);

/**
 * Aggregated outcome of one scenario. The full trace is consumed
 * (and dropped) inside the worker — only summary numbers leave it,
 * which is what keeps a 100+-scenario sweep in bounded memory.
 */
struct ScenarioResult {
    Scenario scenario;
    ScenarioStatus status = ScenarioStatus::kOk;
    /** Failure message when status != kOk. */
    std::string error;

    // --- memory ---------------------------------------------------
    /** Peak of total live bytes. */
    std::size_t peak_total_bytes = 0;
    /** Live bytes per category at the peak instant. */
    std::size_t peak_input_bytes = 0;
    std::size_t peak_parameter_bytes = 0;
    std::size_t peak_intermediate_bytes = 0;
    /** Device reservation high-water mark. */
    std::size_t peak_reserved_bytes = 0;
    /** External fragmentation of the device heap at run end. */
    double device_fragmentation = 0.0;

    // --- time -----------------------------------------------------
    /** Simulated steady-state iteration time. */
    TimeNs iteration_time = 0;
    /** Simulated end-to-end time. */
    TimeNs end_time = 0;

    // --- allocator ------------------------------------------------
    std::uint64_t alloc_count = 0;
    std::uint64_t cache_hit_count = 0;
    std::uint64_t device_alloc_count = 0;

    // --- trace / ATI ----------------------------------------------
    /** Recorded memory events. */
    std::size_t event_count = 0;
    /** ATI sample count. */
    std::size_t ati_count = 0;
    double ati_median_us = 0.0;
    double ati_p90_us = 0.0;
    double ati_max_us = 0.0;

    // --- swap planning --------------------------------------------
    /** Scheduled (hideable) swap decisions. */
    std::size_t swap_decisions = 0;
    /** Predicted bytes absent from the device at the original peak. */
    std::size_t swap_peak_reduction_bytes = 0;
    /** Sum of scheduled swap sizes. */
    std::size_t swap_total_bytes = 0;

    // --- swap validation (shared-link execution) ------------------
    /** Peak reduction the executor measured on the shared link. */
    std::size_t swap_measured_peak_reduction_bytes = 0;
    /** Stall the planner predicted (0 for hideable-only plans). */
    TimeNs swap_predicted_stall_ns = 0;
    /** Stall measured with all transfers contending for one link. */
    TimeNs swap_measured_stall_ns = 0;
    /** Mean per-direction occupancy of the link over the trace. */
    double swap_link_busy_fraction = 0.0;

    // --- data-parallel topology -----------------------------------
    /** Compute / effective iteration time; 1.0 for one device. */
    double scaling_efficiency = 1.0;
    /** Mean per-direction peer-link occupancy; 0 for one device. */
    double interconnect_busy_fraction = 0.0;
    /** Steady-state exposed all-reduce time per iteration. */
    TimeNs allreduce_time_ns = 0;
    /** All-reduce slip beyond the dedicated-link ideal. */
    TimeNs allreduce_stall_ns = 0;

    // --- serving (infer-mode scenarios) ---------------------------
    /** Replayed request count; 0 for training scenarios. */
    int requests = 0;
    /** Steady-state request-latency percentiles; 0 when training. */
    TimeNs latency_p50_ns = 0;
    TimeNs latency_p90_ns = 0;
    TimeNs latency_p99_ns = 0;
    TimeNs latency_max_ns = 0;

    // --- unified relief planner -----------------------------------
    /**
     * Winning relief strategy ("swap", "recompute", "peer", or
     * "hybrid"): among the *available* reports, the one with the
     * largest *measured* peak reduction (swap legs scheduled on the
     * shared link) at unlimited budget, ties broken by lower
     * measured overhead, then by the order swap < recompute < peer
     * < hybrid (simpler mechanism first). Empty when relief
     * planning was skipped or the scenario failed.
     */
    std::string relief_strategy;
    /** Measured peak reduction of the winning strategy. */
    std::size_t relief_peak_reduction_bytes = 0;
    /** Measured overhead (link stall + recompute) of the winner. */
    TimeNs relief_overhead_ns = 0;
};

class ResultCache;

/** Rolling progress counters, for ticker displays. */
struct SweepProgress {
    /** Scenarios finished so far (cache hits included). */
    std::size_t done = 0;
    /** Scenarios this sweep will produce. */
    std::size_t total = 0;
    /** How many of the finished ones came from the cache. */
    std::size_t cache_hits = 0;
};

/** Sweep execution options. */
struct SweepOptions {
    /** Worker threads; 1 = serial in the calling thread. */
    int jobs = 1;
    /** Run the Eq. 1 swap planner over each trace. */
    bool swap_plan = true;
    /**
     * Optional result cache, consulted before dispatching a worker
     * and refilled after every simulated scenario. Not owned; null
     * disables caching.
     */
    const ResultCache *cache = nullptr;
    /**
     * Submit pool work in descending estimated-cost order (longest
     * scenarios first) so the pool tail is short. Exports are
     * unaffected — results always land in grid order. Only the
     * parallel path reorders; jobs == 1 keeps grid-order execution.
     */
    bool cost_order = true;
    /**
     * Called after each scenario finishes, serialized under a lock
     * and therefore safe to print from. Completion order — for
     * progress only, never for results. Best-effort: exceptions it
     * throws are swallowed (identically in serial and parallel
     * mode), never aborting the sweep.
     */
    std::function<void(const ScenarioResult &)> on_result;
    /**
     * Called after on_result with the rolling counters, under the
     * same lock and with the same best-effort contract.
     */
    std::function<void(const SweepProgress &)> on_progress;
};

/** Everything one sweep produced. */
struct SweepReport {
    /** Per-scenario results, in scenario (grid) order. */
    std::vector<ScenarioResult> results;
    /** Scenarios with status kOk. */
    std::size_t succeeded = 0;
    /**
     * Scenarios with status kOom. A deterministic simulated OOM is a
     * capacity finding, not a sweep failure — it is reported per-row
     * and does not make the sweep itself fail.
     */
    std::size_t oom = 0;
    /** Scenarios with status kError. */
    std::size_t failed = 0;
    /** Host wall-clock of the whole sweep, in seconds. */
    double wall_seconds = 0.0;
    /** Worker threads actually used. */
    int jobs = 1;
    /** Scenarios answered from the result cache. */
    std::size_t cache_hits = 0;
    /** Scenarios simulated because the cache had no usable entry. */
    std::size_t cache_misses = 0;
};

/**
 * Runs one scenario to an aggregated result. Never throws: failures
 * are captured in the result's status/error fields.
 */
ScenarioResult run_scenario(const Scenario &scenario,
                            bool swap_plan = true);

/**
 * Executes @p scenarios on @p options.jobs workers and aggregates
 * the outcomes. Deterministic: results (and every exported byte
 * derived from them) depend only on the scenario list, not on
 * scheduling.
 */
SweepReport run_sweep(const std::vector<Scenario> &scenarios,
                      const SweepOptions &options = {});

/** Convenience: expand_grid + run_sweep. */
SweepReport run_sweep(const SweepGrid &grid,
                      const SweepOptions &options = {});

/**
 * @return positions into @p indices, reordered by descending
 * estimated scenario cost — the order the parallel driver feeds the
 * pool so the most expensive scenarios start first and no cheap
 * stragglers wait behind them at the tail. The estimate is
 * model-graph size x run length (iterations x micro-batches, or
 * requests) x replica count x batch; when @p wall_hints_ns (same
 * length as @p indices, 0 = unknown) carries cached wall times,
 * hinted scenarios use their measured cost, rescaled into the
 * abstract unit via the median hinted ratio. Ties keep grid order.
 * Deterministic for fixed inputs; purely a scheduling order, never
 * visible in exports.
 */
std::vector<std::size_t>
submission_order(const std::vector<Scenario> &scenarios,
                 const std::vector<std::size_t> &indices,
                 const std::vector<std::uint64_t> &wall_hints_ns);

}  // namespace sweep
}  // namespace pinpoint

