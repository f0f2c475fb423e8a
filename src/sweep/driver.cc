#include "sweep/driver.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <map>
#include <mutex>
#include <numeric>
#include <utility>

#include "alloc/device_memory.h"
#include "api/study.h"
#include "core/types.h"
#include "nn/model_registry.h"
#include "relief/strategy_planner.h"
#include "runtime/session.h"
#include "swap/executor.h"
#include "swap/planner.h"
#include "sweep/cache.h"
#include "sweep/scenario.h"
#include "sweep/thread_pool.h"

namespace pinpoint {
namespace sweep {
namespace {

/**
 * Fills the aggregate fields of @p out from a finished study. Pure
 * projection: every number is either a session summary field or a
 * Study facet, so the sweep can never recompute an analysis the
 * facet cache already holds. Facets run with default StudyOptions
 * (1 MiB min-block, safety factor 1.0) — matching CLI output
 * requires the same planner flags (the CLI's --min-block default
 * is 8 MiB).
 */
void
aggregate(const api::Study &study, bool swap_plan,
          ScenarioResult &out)
{
    const runtime::SessionResult &r = study.result();
    out.peak_total_bytes = r.usage.peak_total;
    out.peak_input_bytes =
        r.usage.at_peak[static_cast<int>(Category::kInput)];
    out.peak_parameter_bytes =
        r.usage.at_peak[static_cast<int>(Category::kParameter)];
    out.peak_intermediate_bytes =
        r.usage.at_peak[static_cast<int>(Category::kIntermediate)];
    out.peak_reserved_bytes = r.peak_reserved_bytes;
    out.device_fragmentation = r.device_fragmentation;

    out.iteration_time = r.iteration_time;
    out.end_time = r.end_time;

    out.alloc_count = r.alloc_stats.alloc_count;
    out.cache_hit_count = r.alloc_stats.cache_hit_count;
    out.device_alloc_count = r.alloc_stats.device_alloc_count;

    // Data-parallel aggregates read the Study's DP surface, which
    // answers with the single-device identities (1.0 / 0) when the
    // scenario ran one replica — the columns never go stale.
    out.scaling_efficiency = study.scaling_efficiency();
    out.interconnect_busy_fraction =
        study.interconnect_busy_fraction();
    out.allreduce_time_ns = study.allreduce_time();
    out.allreduce_stall_ns = study.allreduce_stall();

    // Serving aggregates likewise read the Study's serving surface,
    // which answers with zeros for training scenarios.
    out.requests = study.requests();
    out.latency_p50_ns = study.latency_p50();
    out.latency_p90_ns = study.latency_p90();
    out.latency_p99_ns = study.latency_p99();
    out.latency_max_ns = study.latency_max();

    out.event_count = r.trace.size();
    const auto &stats = study.ati_summary();
    out.ati_count = stats.count;
    if (stats.count > 0) {
        out.ati_median_us = stats.median;
        out.ati_p90_us = stats.p90;
        out.ati_max_us = stats.max;
    }

    if (swap_plan) {
        // Plan *and* execute on the shared link, so every row
        // carries the measured numbers next to the predicted ones.
        const swap::SwapPlanReport &plan = study.swap_plan();
        const swap::SwapExecutionResult &exec = study.swap_execution();
        const swap::PlanTotals totals = swap::totals_of(plan);
        out.swap_decisions = plan.decisions.size();
        out.swap_peak_reduction_bytes = plan.peak_reduction_bytes;
        out.swap_total_bytes = totals.bytes;
        out.swap_measured_peak_reduction_bytes = swap::peak_saving(
            study.peak_occupancy_bytes(), exec.new_peak_bytes);
        out.swap_predicted_stall_ns = totals.overhead;
        out.swap_measured_stall_ns = exec.measured_stall;
        out.swap_link_busy_fraction = exec.link_busy_fraction;

        // Unified relief: plan every strategy from one shared
        // trace analysis and report the winner on the *measured*
        // numbers — peak reduction with swap legs scheduled on the
        // shared link, overhead = link stall + recompute time. The
        // predicted numbers would repeat the dedicated-link
        // optimism the measured columns exist to correct.
        const auto &reports = study.relief_all();
        for (const auto &rep : reports) {
            // An unavailable report (peer-only on one device) is a
            // placeholder with zero overhead — letting it compete
            // would steal every tie.
            if (!rep.available)
                continue;
            const bool wins =
                out.relief_strategy.empty() ||
                rep.measured_peak_reduction >
                    out.relief_peak_reduction_bytes ||
                (rep.measured_peak_reduction ==
                     out.relief_peak_reduction_bytes &&
                 rep.measured_overhead < out.relief_overhead_ns);
            if (wins) {
                out.relief_strategy =
                    relief::strategy_name(rep.strategy);
                out.relief_peak_reduction_bytes =
                    rep.measured_peak_reduction;
                out.relief_overhead_ns = rep.measured_overhead;
            }
        }
    }
}

/** Best-effort progress notification; never lets a throw escape. */
void
notify(const SweepOptions &options, const ScenarioResult &result)
{
    if (!options.on_result)
        return;
    try {
        options.on_result(result);
    } catch (...) {
        // Progress reporting must never abort the sweep — in the
        // parallel path an escaping exception would std::terminate.
    }
}

/**
 * Memoized node count of a model's graph — the per-iteration work
 * proxy the cost model scales. Building a graph is cheap (metadata
 * only, no tensors) but not free, and a big grid repeats each model
 * name hundreds of times. Unknown names cost 1 instead of throwing:
 * the estimate must never fail a sweep the driver could still run.
 */
std::size_t
model_graph_size(const std::string &name)
{
    static std::mutex mutex;
    static std::map<std::string, std::size_t> sizes;
    std::lock_guard<std::mutex> lock(mutex);
    const auto it = sizes.find(name);
    if (it != sizes.end())
        return it->second;
    std::size_t nodes = 1;
    try {
        nodes = nn::build_model(name).graph.size();
    } catch (...) {
        nodes = 1;
    }
    if (nodes == 0)
        nodes = 1;
    sizes.emplace(name, nodes);
    return nodes;
}

/** Abstract cost estimate: graph size x run length x replicas x batch. */
double
abstract_cost(const Scenario &s)
{
    const double run_length =
        s.mode == runtime::SessionMode::kInfer
            ? static_cast<double>(s.requests)
            : static_cast<double>(s.iterations) *
                  static_cast<double>(s.micro_batches);
    return static_cast<double>(model_graph_size(s.model)) *
           run_length * static_cast<double>(s.devices) *
           static_cast<double>(s.batch);
}

}  // namespace

const char *
scenario_status_name(ScenarioStatus status)
{
    switch (status) {
      case ScenarioStatus::kOk: return "ok";
      case ScenarioStatus::kOom: return "oom";
      case ScenarioStatus::kError: return "error";
    }
    return "unknown";
}

ScenarioResult
run_scenario(const Scenario &scenario, bool swap_plan)
{
    ScenarioResult result;
    result.scenario = scenario;
    try {
        const api::Study study = api::Study::run(scenario.spec());
        aggregate(study, swap_plan, result);
    } catch (const alloc::DeviceOomError &e) {
        result.status = ScenarioStatus::kOom;
        result.error = e.what();
    } catch (const std::exception &e) {
        result.status = ScenarioStatus::kError;
        result.error = e.what();
    }
    return result;
}

std::vector<std::size_t>
submission_order(const std::vector<Scenario> &scenarios,
                 const std::vector<std::size_t> &indices,
                 const std::vector<std::uint64_t> &wall_hints_ns)
{
    std::vector<double> cost(indices.size(), 0.0);
    std::vector<double> ratios;
    for (std::size_t k = 0; k < indices.size(); ++k) {
        cost[k] = abstract_cost(scenarios[indices[k]]);
        if (k < wall_hints_ns.size() && wall_hints_ns[k] > 0 &&
            cost[k] > 0)
            ratios.push_back(
                static_cast<double>(wall_hints_ns[k]) / cost[k]);
    }
    if (!ratios.empty()) {
        // Median hinted wall-per-unit ratio converts the abstract
        // estimates into the hints' unit, so a scenario with a
        // measured wall time and one without compare on one scale.
        const std::size_t mid = ratios.size() / 2;
        std::nth_element(ratios.begin(), ratios.begin() + mid,
                         ratios.end());
        const double scale = ratios[mid];
        if (scale > 0) {
            for (std::size_t k = 0; k < indices.size(); ++k) {
                if (k < wall_hints_ns.size() && wall_hints_ns[k] > 0)
                    cost[k] = static_cast<double>(wall_hints_ns[k]);
                else
                    cost[k] *= scale;
            }
        }
    }
    std::vector<std::size_t> order(indices.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    // stable_sort keeps equal-cost scenarios in grid order.
    std::stable_sort(order.begin(), order.end(),
                     [&cost](std::size_t a, std::size_t b) {
                         return cost[a] > cost[b];
                     });
    return order;
}

SweepReport
run_sweep(const std::vector<Scenario> &scenarios,
          const SweepOptions &options)
{
    SweepReport report;
    report.jobs = options.jobs < 1 ? 1 : options.jobs;
    report.results.resize(scenarios.size());

    const auto start = std::chrono::steady_clock::now();

    SweepProgress progress;
    progress.total = scenarios.size();
    std::mutex mutex;

    // Publishes one finished result: slot write, counters, progress
    // callbacks. The lock serializes everything observable from
    // outside the driver; the slot itself has exactly one writer,
    // so it is written outside the lock.
    const auto finish = [&](std::size_t slot, ScenarioResult r,
                            bool from_cache) {
        {
            std::lock_guard<std::mutex> lock(mutex);
            if (from_cache) {
                ++report.cache_hits;
                ++progress.cache_hits;
            }
            ++progress.done;
            notify(options, r);
            if (options.on_progress) {
                try {
                    options.on_progress(progress);
                } catch (...) {
                    // Same best-effort contract as on_result.
                }
            }
        }
        report.results[slot] = std::move(r);
    };

    // Cache probe, serial and in grid order, so hits surface
    // immediately and the misses keep their deterministic order.
    std::vector<std::size_t> pending;
    std::vector<std::uint64_t> hints;
    for (std::size_t k = 0; k < scenarios.size(); ++k) {
        std::uint64_t hint = 0;
        if (options.cache) {
            ScenarioResult cached;
            const CacheLookup lookup =
                options.cache->load(scenarios[k], options.swap_plan,
                                    cached, hint);
            if (lookup == CacheLookup::kHit) {
                finish(k, std::move(cached), true);
                continue;
            }
        }
        pending.push_back(k);
        hints.push_back(hint);
    }
    report.cache_misses = options.cache ? pending.size() : 0;

    const auto run_one = [&](std::size_t k) {
        // Each worker owns its scenario's entire session — device
        // arena, clock, allocator, recorder — so runs share nothing
        // and every slot is written exactly once.
        const auto t0 = std::chrono::steady_clock::now();
        ScenarioResult r = run_scenario(scenarios[k], options.swap_plan);
        const auto t1 = std::chrono::steady_clock::now();
        if (options.cache) {
            const auto wall_ns =
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    t1 - t0)
                    .count();
            options.cache->store(scenarios[k], options.swap_plan, r,
                                 static_cast<std::uint64_t>(wall_ns));
        }
        finish(k, std::move(r), false);
    };

    if (report.jobs == 1) {
        for (std::size_t k : pending)
            run_one(k);
    } else if (!pending.empty()) {
        std::vector<std::size_t> order(pending.size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        if (options.cost_order)
            order = submission_order(scenarios, pending, hints);
        // A worker per pending scenario at most: report.jobs stays
        // the requested count, but a warm cache starts no thread.
        ThreadPool pool(static_cast<int>(std::min<std::size_t>(
            static_cast<std::size_t>(report.jobs), pending.size())));
        for (std::size_t p : order)
            pool.submit([&, p] { run_one(pending[p]); });
        pool.wait();
    }

    const auto end = std::chrono::steady_clock::now();
    report.wall_seconds =
        std::chrono::duration<double>(end - start).count();

    for (const auto &r : report.results) {
        switch (r.status) {
          case ScenarioStatus::kOk: ++report.succeeded; break;
          case ScenarioStatus::kOom: ++report.oom; break;
          case ScenarioStatus::kError: ++report.failed; break;
        }
    }
    return report;
}

SweepReport
run_sweep(const SweepGrid &grid, const SweepOptions &options)
{
    return run_sweep(expand_grid(grid), options);
}

}  // namespace sweep
}  // namespace pinpoint
