#include "cli/commands.h"

#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "analysis/report.h"
#include "analysis/series.h"
#include "analysis/swap_model.h"
#include "analysis/trace_view.h"
#include "api/study.h"
#include "api/workload.h"
#include "cli/command.h"
#include "cli/flags.h"
#include "core/check.h"
#include "core/format.h"
#include "core/parse.h"
#include "core/row_writer.h"
#include "core/types.h"
#include "nn/model_registry.h"
#include "relief/strategy_planner.h"
#include "runtime/data_parallel.h"
#include "runtime/request_stream.h"
#include "runtime/session.h"
#include "sim/cost_model.h"
#include "sim/device_spec.h"
#include "sim/pcie.h"
#include "sim/topology.h"
#include "swap/executor.h"
#include "swap/planner.h"
#include "sweep/cache.h"
#include "sweep/driver.h"
#include "sweep/export.h"
#include "sweep/scenario.h"
#include "trace/chrome_trace.h"
#include "trace/csv.h"

namespace pinpoint {
namespace cli {
namespace {

/** Builds the workload spec of a command from its parsed flags. */
api::WorkloadSpec
workload_from(const ParsedArgs &parsed, const char *default_model)
{
    api::WorkloadSpec base;
    base.model = default_model;
    return api::WorkloadSpec::from_flags(
        [&](const std::string &name) { return parsed.raw(name); },
        base);
}

/**
 * @return the validated --safety-factor value. The planners
 * PP_CHECK >= 1.0 internally, but that surfaces as an internal
 * file:line diagnostic with exit 1; a flag value is a usage error
 * and must exit 2 with a flag-named message.
 */
double
safety_factor_from(const ParsedArgs &args)
{
    const double factor = args.double_value("safety-factor", 1.0);
    if (!(factor >= 1.0) || !std::isfinite(factor))
        throw UsageError(
            "--safety-factor must be a finite number >= 1.0, got '" +
            args.value("safety-factor", "") + "'");
    return factor;
}

/**
 * @return the millisecond flag @p name in nanoseconds, saturating at
 * the TimeNs maximum: the unsigned cast of a larger double is UB.
 * NaN, inf and values under @p min_ns are usage errors.
 */
TimeNs
ms_flag_ns(const ParsedArgs &args, const std::string &name, TimeNs min_ns)
{
    const double ms = args.double_value(name, 0.0);
    const double ns = ms * static_cast<double>(kNsPerMs);
    // The negated comparison also rejects NaN.
    if (!(ns >= static_cast<double>(min_ns)) || !std::isfinite(ms)) {
        char min_ms[32];
        std::snprintf(min_ms, sizeof min_ms, "%g",
                      static_cast<double>(min_ns) /
                          static_cast<double>(kNsPerMs));
        throw UsageError("--" + name + " must be a finite number >= " +
                         min_ms + ", got '" + args.value(name, "") + "'");
    }
    constexpr TimeNs kMax = std::numeric_limits<TimeNs>::max();
    return ns >= static_cast<double>(kMax) ? kMax : static_cast<TimeNs>(ns);
}

/** Prints one "  label value" summary row, values at column 22. */
void
row(CommandIo &io, const char *label, const std::string &value)
{
    oprintf(io.out, "  %-19s %s\n", label, value.c_str());
}

/**
 * Writes the export --@p flag asks for, if any, through @p write and
 * names it on @p io.out as @p what.
 */
template <class Write>
void
export_file(const ParsedArgs &args, const char *flag, const char *what,
            CommandIo &io, Write write)
{
    const std::string path = args.value(flag, "");
    if (path.empty())
        return;
    std::ofstream os(path);
    PP_CHECK(os.good(), "cannot open '" << path << "'");
    write(os);
    oprintf(io.out, "wrote %s to %s\n", what, path.c_str());
}

/** @return the validated --min-block threshold in bytes. */
std::size_t
min_block_bytes_from(const ParsedArgs &args)
{
    const std::int64_t mib = args.int64_value("min-block", 8);
    // A negative value would wrap through the size_t cast into a
    // ~1.8e19 threshold and silently produce an empty plan.
    if (mib < 0 || mib > (1 << 20))
        throw UsageError("--min-block must be between 0 and "
                         "1048576 MiB, got " +
                         std::to_string(mib));
    return static_cast<std::size_t>(mib) * 1024 * 1024;
}

// ----------------------------------------------------------------
// characterize
// ----------------------------------------------------------------

int
cmd_characterize(const ParsedArgs &args, CommandIo &io)
{
    const api::WorkloadSpec spec = workload_from(args, "mlp");
    const api::Study study = api::Study::run(spec);

    analysis::ReportOptions opts;
    const std::string run_length =
        study.inference()
            ? " x" + std::to_string(study.requests()) + " requests"
            : " x" + std::to_string(spec.iterations) + " iterations";
    opts.title = spec.model + " batch " + std::to_string(spec.batch) +
                 run_length + " on " + study.device().name;
    opts.link = analysis::LinkBandwidth{study.device().d2h_bw_bps,
                                        study.device().h2d_bw_bps};
    opts.gantt = !args.flag("no-gantt");
    analysis::write_report(study.view(), io.out, opts);

    if (study.data_parallel()) {
        // The report above is the simulated replica's single-device
        // view (it stands for every device); the aggregate topology
        // numbers are the data-parallel delta on top of it.
        const runtime::DataParallelResult &dp =
            study.data_parallel_result();
        oprintf(io.out, "\ndata-parallel topology: %d x %s over %s\n",
                dp.devices, study.device().name.c_str(),
                dp.interconnect.name.c_str());
        row(io, "gradient bytes:",
            format_bytes(dp.gradient_bytes) + " per iteration");
        row(io, "compute iteration:", format_time(dp.compute_iteration_time));
        row(io, "all-reduce:",
            format_time(dp.allreduce_time) + " (ideal " +
                format_time(dp.allreduce_ideal_time) + ", stall " +
                format_time(dp.allreduce_stall()) + ")");
        row(io, "effective iteration:", format_time(dp.iteration_time()));
        row(io, "interconnect busy:",
            format_percent(dp.interconnect_busy_fraction));
        oprintf(io.out, "  scaling efficiency: %.3f\n",
                dp.scaling_efficiency());
    }

    if (study.inference()) {
        // The report above covers the continuous serving trace; the
        // request-stream numbers are the serving delta on top of it.
        const runtime::InferenceResult &inf =
            study.inference_result();
        oprintf(io.out,
                "\nserving stream: %d requests, %s arrivals "
                "(seed %llu)\n",
                study.requests(),
                runtime::arrival_kind_name(inf.arrival),
                static_cast<unsigned long long>(inf.seed));
        row(io, "latency p50:", format_time(study.latency_p50()));
        row(io, "latency p90:", format_time(study.latency_p90()));
        row(io, "latency p99:", format_time(study.latency_p99()));
        row(io, "latency max:", format_time(study.latency_max()));
        if (inf.session.end_time > 0)
            oprintf(io.out,
                    "  throughput:         %.1f requests/s\n",
                    1e9 * study.requests() /
                        static_cast<double>(inf.session.end_time));
    }

    const std::string csv = args.value("csv", "");
    if (!csv.empty()) {
        trace::write_csv_file(study.trace(), csv);
        oprintf(io.out, "\nwrote CSV trace to %s\n", csv.c_str());
    }
    const std::string chrome = args.value("chrome", "");
    if (!chrome.empty()) {
        trace::write_chrome_trace_file(study.trace(), chrome);
        oprintf(io.out,
                "wrote Chrome trace to %s (load in "
                "chrome://tracing)\n",
                chrome.c_str());
    }
    export_file(args, "series", "occupancy series", io,
                [&](std::ostream &os) {
                    analysis::write_series_csv(
                        analysis::occupancy_series(study.view()), os);
                });
    return kExitOk;
}

// ----------------------------------------------------------------
// swap
// ----------------------------------------------------------------

/**
 * Writes the per-decision swap schedule as CSV. Measured columns
 * are present only when @p exec is non-null (--validate).
 */
void
write_swap_csv(const swap::SwapPlanReport &plan,
               const swap::SwapExecutionResult *exec,
               std::ostream &os)
{
    RowWriter w(os);
    w << "block,tensor,size_bytes,gap_start_ns,gap_end_ns,gap_ns,"
         "hide_ratio,predicted_overhead_ns";
    if (exec)
        w << ",out_start_ns,out_end_ns,in_start_ns,in_end_ns,"
             "queue_delay_ns,measured_stall_ns";
    w << "\n";
    for (std::size_t i = 0; i < plan.decisions.size(); ++i) {
        const auto &d = plan.decisions[i];
        w << d.block << ',' << d.tensor << ',' << d.size << ','
          << d.gap_start << ',' << d.gap_end << ','
          << d.gap_end - d.gap_start << ',' << Fixed6{d.hide_ratio}
          << ',' << d.overhead;
        if (exec) {
            const auto &s = exec->swaps[i];
            w << ',' << s.out_start << ',' << s.out_end << ','
              << s.in_start << ',' << s.in_end << ',' << s.queue_delay
              << ',' << s.stall;
        }
        w << "\n";
    }
    w.flush();
}

/** Writes @p study's swap plan (and @p exec, when present) as JSON. */
void
write_swap_json(const api::Study &study,
                const swap::SwapExecutionResult *exec, std::ostream &os)
{
    const swap::SwapPlanReport &plan = study.swap_plan();
    const swap::PlanTotals totals = swap::totals_of(plan);
    RowWriter w(os);
    w << "{\n  \"model\": \"" << trace::json_escape(study.spec().model)
      << "\", \"batch\": " << study.spec().batch << ", \"device\": \""
      << trace::json_escape(study.device().name) << "\",\n"
      << "  \"plan\": {\"decisions\": " << plan.decisions.size()
      << ", \"original_peak_bytes\": " << study.peak_occupancy_bytes()
      << ", \"peak_reduction_bytes\": " << plan.peak_reduction_bytes
      << ", \"total_swapped_bytes\": " << totals.bytes
      << ", \"predicted_overhead_ns\": " << totals.overhead
      << "},\n  \"decisions\": [\n";
    for (std::size_t i = 0; i < plan.decisions.size(); ++i) {
        const auto &d = plan.decisions[i];
        w << "    {\"block\": " << d.block
          << ", \"size_bytes\": " << d.size
          << ", \"gap_start_ns\": " << d.gap_start
          << ", \"gap_end_ns\": " << d.gap_end
          << ", \"hide_ratio\": " << Fixed6{d.hide_ratio}
          << ", \"predicted_overhead_ns\": " << d.overhead;
        if (exec) {
            const auto &s = exec->swaps[i];
            w << ", \"out_start_ns\": " << s.out_start
              << ", \"out_end_ns\": " << s.out_end
              << ", \"in_start_ns\": " << s.in_start
              << ", \"in_end_ns\": " << s.in_end
              << ", \"queue_delay_ns\": " << s.queue_delay
              << ", \"measured_stall_ns\": " << s.stall;
        }
        w << "}" << (i + 1 < plan.decisions.size() ? "," : "")
          << "\n";
    }
    w << "  ]";
    if (exec) {
        w << ",\n  \"execution\": {\"new_peak_bytes\": "
          << exec->new_peak_bytes
          << ", \"measured_peak_reduction_bytes\": "
          << swap::peak_saving(study.peak_occupancy_bytes(),
                               exec->new_peak_bytes)
          << ", \"measured_stall_ns\": " << exec->measured_stall
          << ", \"queue_delay_ns\": " << exec->queue_delay
          << ", \"d2h_busy_ns\": " << exec->d2h_busy_time
          << ", \"h2d_busy_ns\": " << exec->h2d_busy_time
          << ", \"link_busy_fraction\": "
          << Fixed6{exec->link_busy_fraction} << "}";
    }
    w << "\n}\n";
    w.flush();
}

int
cmd_swap(const ParsedArgs &args, CommandIo &io)
{
    const api::WorkloadSpec spec = workload_from(args, "resnet50");

    api::StudyOptions opts;
    opts.swap.safety_factor = safety_factor_from(args);
    opts.swap.min_block_bytes = min_block_bytes_from(args);
    opts.swap.allow_overhead = args.flag("allow-overhead");
    const bool validate = args.flag("validate");

    const api::Study study = api::Study::run(spec, opts);
    // Plan-only invocations never pay for link scheduling;
    // --validate executes the same cached plan, so the printed plan
    // and the exported per-decision rows stay aligned.
    const swap::SwapPlanReport &plan = study.swap_plan();
    const swap::SwapExecutionResult *measured =
        validate ? &study.swap_execution() : nullptr;
    const swap::PlanTotals totals = swap::totals_of(plan);

    oprintf(io.out, "swap plan for %s batch %lld on %s\n",
            spec.model.c_str(), static_cast<long long>(spec.batch),
            study.device().name.c_str());
    const std::size_t original_peak = study.peak_occupancy_bytes();
    row(io, "decisions:", std::to_string(plan.decisions.size()));
    row(io, "original peak:", format_bytes(original_peak));
    row(io, "predicted savings:", format_bytes(plan.peak_reduction_bytes));
    row(io, "predicted stall:", format_time(totals.overhead));

    if (measured) {
        const swap::SwapExecutionResult &exec = *measured;
        oprintf(io.out, "validated on the shared PCIe link:\n");
        row(io, "new peak:", format_bytes(exec.new_peak_bytes));
        row(io, "measured savings:",
            format_bytes(
                swap::peak_saving(original_peak, exec.new_peak_bytes)));
        // Every decision crosses the link once each way.
        row(io, "bytes moved:",
            format_bytes(totals.bytes) + " out + " +
                format_bytes(totals.bytes) + " in");
        row(io, "link busy:",
            format_time(exec.d2h_busy_time + exec.h2d_busy_time) + " (" +
                format_percent(exec.link_busy_fraction) + " of trace)");
        row(io, "queue delay:", format_time(exec.queue_delay));
        row(io, "measured stall:", format_time(exec.measured_stall));
        if (exec.measured_stall > totals.overhead)
            row(io, "contention stall:",
                format_time(exec.measured_stall - totals.overhead) +
                    " beyond the dedicated-link prediction");
    }

    export_file(args, "csv", "swap schedule CSV", io,
                [&](std::ostream &os) {
                    write_swap_csv(plan, measured, os);
                });
    export_file(args, "json", "swap schedule JSON", io,
                [&](std::ostream &os) {
                    write_swap_json(study, measured, os);
                });
    return kExitOk;
}

// ----------------------------------------------------------------
// relief
// ----------------------------------------------------------------

/** Writes the relief schedule as CSV; @p report was planned on @p view. */
void
write_relief_csv(const analysis::TraceView &view,
                 const relief::ReliefReport &report, std::ostream &os)
{
    RowWriter w(os);
    w << "mechanism,block,tensor,size_bytes,gap_start_ns,"
         "gap_end_ns,gap_ns,overhead_ns,covers_peak,hide_ratio,"
         "producer,recompute_cost_ns\n";
    for (const auto &d : report.decisions) {
        w << relief::mechanism_name(d.mechanism) << ',' << d.block
          << ',' << d.tensor << ',' << d.size << ',' << d.gap_start
          << ',' << d.gap_end << ',' << d.gap_end - d.gap_start << ','
          << d.overhead << ',' << (d.covers_peak ? 1 : 0) << ','
          << Fixed6{d.hide_ratio} << ',' << view.op_name(d.producer)
          << ','
          << (d.mechanism == relief::Mechanism::kRecompute ? d.overhead
                                                           : 0)
          << "\n";
    }
    w.flush();
}

/** Writes @p report, planned on @p study's trace, as JSON. */
void
write_relief_json(const api::Study &study,
                  const relief::ReliefReport &report, std::ostream &os)
{
    using relief::Mechanism;
    const analysis::TraceView &view = study.view();
    const relief::MechanismTotals all = relief::totals_of(report);
    RowWriter w(os);
    w << "{\n  \"model\": \"" << trace::json_escape(study.spec().model)
      << "\", \"batch\": " << study.spec().batch << ", \"device\": \""
      << trace::json_escape(study.device().name)
      << "\", \"strategy\": \""
      << relief::strategy_name(report.strategy) << "\",\n"
      << "  \"plan\": {\"decisions\": " << report.decisions.size()
      << ", \"swap_decisions\": "
      << relief::totals_of(report, Mechanism::kSwap).decisions
      << ", \"recompute_decisions\": "
      << relief::totals_of(report, Mechanism::kRecompute).decisions
      << ", \"peer_decisions\": "
      << relief::totals_of(report, Mechanism::kPeer).decisions
      << ", \"original_peak_bytes\": " << study.peak_occupancy_bytes()
      << ", \"peak_reduction_bytes\": " << all.covered_bytes
      << ", \"predicted_overhead_ns\": " << all.overhead
      << "},\n  \"execution\": {\"new_peak_bytes\": "
      << report.new_peak_bytes
      << ", \"measured_peak_reduction_bytes\": "
      << report.measured_peak_reduction
      << ", \"measured_overhead_ns\": " << report.measured_overhead
      << ", \"swap_stall_ns\": "
      << report.swap_schedule.measured_stall
      << ", \"peer_stall_ns\": "
      << report.peer_schedule.measured_stall
      << ", \"link_busy_fraction\": "
      << Fixed6{report.swap_schedule.link_busy_fraction}
      << "},\n  \"decisions\": [\n";
    // Each producer name is escaped once, on its first recompute
    // (the empty name stays empty).
    std::vector<std::string> producers(view.op_count());
    for (std::size_t i = 0; i < report.decisions.size(); ++i) {
        const auto &d = report.decisions[i];
        w << "    {\"mechanism\": \""
          << relief::mechanism_name(d.mechanism)
          << "\", \"block\": " << d.block
          << ", \"size_bytes\": " << d.size
          << ", \"gap_start_ns\": " << d.gap_start
          << ", \"gap_end_ns\": " << d.gap_end
          << ", \"overhead_ns\": " << d.overhead
          << ", \"covers_peak\": "
          << (d.covers_peak ? "true" : "false");
        // Swap and peer decisions are transfers (a hide ratio);
        // recompute decisions name the producer they re-run.
        if (d.mechanism != Mechanism::kRecompute) {
            w << ", \"hide_ratio\": " << Fixed6{d.hide_ratio};
        } else {
            std::string &name = producers[d.producer];
            if (name.empty())
                name = trace::json_escape(view.op_name(d.producer));
            w << ", \"producer\": \"" << name
              << "\", \"recompute_cost_ns\": " << d.overhead;
        }
        w << "}" << (i + 1 < report.decisions.size() ? "," : "")
          << "\n";
    }
    w << "  ]\n}\n";
    w.flush();
}

int
cmd_relief(const ParsedArgs &args, CommandIo &io)
{
    const api::WorkloadSpec spec = workload_from(args, "resnet50");

    api::StudyOptions opts;
    opts.relief.safety_factor = safety_factor_from(args);
    opts.relief.min_block_bytes = min_block_bytes_from(args);
    // A saturated budget is kUnlimitedBudget, the TimeNs maximum.
    if (args.has("budget-ms"))
        opts.relief.overhead_budget =
            ms_flag_ns(args, "budget-ms", /*min_ns=*/0);
    if (args.has("slo-ms")) {
        if (spec.mode != runtime::SessionMode::kInfer)
            throw UsageError(
                "--slo-ms is a per-request serving SLO; it needs "
                "--mode infer");
        // A 0 ns SLO would read as "no SLO", so anything that
        // truncates to it is refused.
        opts.relief.latency_budget_ns =
            ms_flag_ns(args, "slo-ms", /*min_ns=*/1);
    }
    relief::Strategy strategy = relief::Strategy::kHybrid;
    if (args.has("strategy"))
        strategy = relief::strategy_from_name(
            args.value("strategy", "hybrid"));
    // Catch the impossible selection before paying for the run: the
    // peer mechanism needs a peer to offload to.
    if (strategy == relief::Strategy::kPeerOnly && spec.devices < 2)
        throw UsageError(
            "--strategy peer needs a multi-device workload "
            "(--devices >= 2), got --devices " +
            std::to_string(spec.devices));

    const api::Study study = api::Study::run(spec, opts);
    // One trace analysis, every strategy at the same budget: the
    // selected strategy's detailed report plus the references, so a
    // single run answers "which lever wins here?".
    const auto &reports = study.relief_all();
    oprintf(io.out, "relief plan for %s batch %lld on %s",
            spec.model.c_str(), static_cast<long long>(spec.batch),
            study.device().name.c_str());
    if (opts.relief.overhead_budget != relief::kUnlimitedBudget)
        oprintf(io.out, " (budget %s)",
                format_time(opts.relief.overhead_budget).c_str());
    if (opts.relief.latency_budget_ns > 0)
        oprintf(io.out, " (SLO %s/request)",
                format_time(opts.relief.latency_budget_ns).c_str());
    oprintf(io.out, "\n\n%-12s %10s %12s %12s %12s %12s\n",
            "strategy", "decisions", "peak save", "overhead",
            "meas save", "meas ovh");
    // Points into the Study-owned cache (which outlives every use
    // below) — the decision vectors are not worth copying.
    const relief::ReliefReport *selected_report = nullptr;
    for (const auto &rep : reports) {
        // The peer-only row exists only when a peer topology is
        // armed; an unavailable placeholder would print misleading
        // zeros (and change single-device bytes).
        if (!rep.available)
            continue;
        const relief::MechanismTotals all = relief::totals_of(rep);
        oprintf(io.out, "%-12s %10zu %12s %12s %12s %12s%s\n",
                relief::strategy_name(rep.strategy), all.decisions,
                format_bytes(all.covered_bytes).c_str(),
                format_time(all.overhead).c_str(),
                format_bytes(rep.measured_peak_reduction).c_str(),
                format_time(rep.measured_overhead).c_str(),
                rep.strategy == strategy ? "  <-- selected" : "");
        if (rep.strategy == strategy)
            selected_report = &rep;
    }
    PP_ASSERT(selected_report != nullptr,
              "plan_all missed strategy "
                  << relief::strategy_name(strategy));
    const relief::ReliefReport &selected = *selected_report;

    using relief::Mechanism;
    const auto swapped = relief::totals_of(selected, Mechanism::kSwap);
    const auto recomputed =
        relief::totals_of(selected, Mechanism::kRecompute);
    const auto to_peer = relief::totals_of(selected, Mechanism::kPeer);
    oprintf(io.out,
            "\nselected %s: %zu decisions (%zu swap, %zu "
            "recompute",
            relief::strategy_name(strategy),
            selected.decisions.size(), swapped.decisions,
            recomputed.decisions);
    if (spec.devices > 1)
        oprintf(io.out, ", %zu peer", to_peer.decisions);
    oprintf(io.out, ")\n");
    row(io, "original peak:", format_bytes(study.peak_occupancy_bytes()));
    row(io, "predicted savings:",
        format_bytes(relief::totals_of(selected).covered_bytes));
    row(io, "new peak (sched.):", format_bytes(selected.new_peak_bytes));
    row(io, "bytes swapped:", format_bytes(swapped.bytes));
    row(io, "bytes recomputed:", format_bytes(recomputed.bytes));
    if (spec.devices > 1)
        row(io, "bytes to peer:", format_bytes(to_peer.bytes));
    // Peer stall is 0 on single-device studies, so the sum prints
    // the same bytes there as the host-only stall always did.
    row(io, "measured overhead:",
        format_time(selected.measured_overhead) + " (" +
            format_time(selected.swap_schedule.measured_stall +
                        selected.peer_schedule.measured_stall) +
            " link stall + recompute)");

    export_file(args, "csv", "relief schedule CSV", io,
                [&](std::ostream &os) {
                    write_relief_csv(study.view(), selected, os);
                });
    export_file(args, "json", "relief schedule JSON", io,
                [&](std::ostream &os) {
                    write_relief_json(study, selected, os);
                });
    return kExitOk;
}

// ----------------------------------------------------------------
// bandwidth / models
// ----------------------------------------------------------------

int
cmd_bandwidth(const ParsedArgs &args, CommandIo &io)
{
    // Throws the shared typed "unknown device" UsageError.
    const sim::DeviceSpec spec =
        sim::device_spec_by_name(args.value("device", "titan-x"));
    const sim::CostModel cost(spec);
    const sim::BandwidthTest bw(cost);
    constexpr double kGB = 1024.0 * 1024.0 * 1024.0;
    oprintf(io.out, "bandwidthTest equivalent on %s\n",
            spec.name.c_str());
    oprintf(io.out, "  H2D pinned: %.2f GB/s\n",
            bw.asymptotic_bps(sim::CopyDir::kHostToDevice) / kGB);
    oprintf(io.out, "  D2H pinned: %.2f GB/s\n",
            bw.asymptotic_bps(sim::CopyDir::kDeviceToHost) / kGB);
    return kExitOk;
}

int
cmd_models(const ParsedArgs &, CommandIo &io)
{
    // out carries bare names only, so `models | xargs` stays
    // scriptable; the variant annotation goes to err.
    for (const auto &entry : nn::model_registry()) {
        oprintf(io.out, "%s\n", entry.name.c_str());
        if (!entry.in_default_zoo)
            oprintf(io.err,
                    "# %s is a test variant (excluded "
                    "from default sweeps)\n",
                    entry.name.c_str());
    }
    return kExitOk;
}

// ----------------------------------------------------------------
// sweep
// ----------------------------------------------------------------

/** Parses a "--shard i/N" value. @throws UsageError otherwise. */
void
parse_shard(const std::string &text, int &shard, int &of)
{
    const auto slash = text.find('/');
    int i = 0;
    int n = 0;
    if (slash == std::string::npos ||
        !parse_int(text.substr(0, slash), i) ||
        !parse_int(text.substr(slash + 1), n))
        throw UsageError(
            "--shard must look like i/N (e.g. 0/4), got '" + text +
            "'");
    shard = i;
    of = n;
}

int
cmd_sweep(const ParsedArgs &args, CommandIo &io)
{
    // Grid axis values are user input; the sweep parsers and
    // expand_grid throw typed UsageErrors (exit 2) themselves.
    sweep::SweepGrid grid;
    grid.models = sweep::split_list(args.value("models", ""));
    grid.batches = sweep::parse_batches(args.value("batches", ""));
    grid.allocators =
        sweep::parse_allocators(args.value("allocators", ""));
    grid.device_presets =
        sweep::split_list(args.value("device-presets", ""));
    grid.device_counts =
        sweep::parse_device_counts(args.value("devices", ""));
    grid.topologies =
        sweep::split_list(args.value("topologies", ""));
    grid.modes = sweep::parse_modes(args.value("modes", ""));
    grid.dtypes = sweep::parse_dtypes(args.value("dtypes", ""));
    grid.iterations = args.int_value("iterations", 5);
    grid.requests = args.int_value("requests", 32);
    if (args.has("arrival"))
        grid.arrival = runtime::arrival_kind_from_name(
            args.value("arrival", "bursty"));

    sweep::SweepOptions opts;
    opts.jobs = args.int_value("jobs", 1);
    if (opts.jobs < 1)
        throw UsageError("--jobs must be >= 1, got " +
                         std::to_string(opts.jobs));
    opts.swap_plan = !args.flag("no-swap-plan");
    const bool quiet = args.flag("quiet");
    if (!quiet) {
        opts.on_result = [&io](const sweep::ScenarioResult &r) {
            oprintf(io.err, "[%s] %s\n",
                    sweep::scenario_status_name(r.status),
                    r.scenario.id().c_str());
        };
    }

    // Sharded mode runs one slice of the grid into the result
    // cache, so it needs a cache and has no exports of its own.
    auto scenarios = sweep::expand_grid(grid);
    const std::string shard_text = args.value("shard", "");
    const std::string cache_dir = args.value("cache-dir", "");
    const bool sharded = !shard_text.empty();
    int shard = 0;
    int shard_of = 1;
    if (sharded) {
        parse_shard(shard_text, shard, shard_of);
        if (cache_dir.empty())
            throw UsageError("--shard requires --cache-dir DIR "
                             "(where this shard stores its rows)");
        if (args.flag("no-cache"))
            throw UsageError("--shard cannot be combined with "
                             "--no-cache (the cache is where the "
                             "shard's rows go)");
        if (!args.value("csv", "").empty() ||
            !args.value("json", "").empty())
            throw UsageError(
                "--csv/--json are not valid with --shard; gather "
                "the exports with a plain 'sweep' over the same "
                "grid and --cache-dir");
        std::vector<sweep::Scenario> slice;
        for (std::size_t index :
             sweep::shard_indices(scenarios.size(), shard, shard_of))
            slice.push_back(scenarios[index]);
        scenarios = std::move(slice);
    }

    // Result cache: --no-cache wins over --cache-dir so a script
    // with a baked-in cache directory can force a fresh run.
    std::unique_ptr<sweep::ResultCache> cache;
    if (!cache_dir.empty() && !args.flag("no-cache")) {
        cache.reset(new sweep::ResultCache(cache_dir));
        opts.cache = cache.get();
    }

    // --progress is a stderr-only ticker: exports and the stdout
    // table never see it, so it cannot break byte-identity.
    if (args.flag("progress")) {
        const auto start = std::chrono::steady_clock::now();
        opts.on_progress = [&io,
                            start](const sweep::SweepProgress &p) {
            const double elapsed =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            const double eta =
                p.done == 0 ? 0.0
                            : elapsed / static_cast<double>(p.done) *
                                  static_cast<double>(p.total -
                                                      p.done);
            oprintf(io.err,
                    "progress: %zu/%zu done, %zu cache hit%s, "
                    "eta %.1fs\n",
                    p.done, p.total, p.cache_hits,
                    p.cache_hits == 1 ? "" : "s", eta);
        };
    }

    // A shard is a warm-restartable slice: rows already in the cache
    // are hits, so re-running a killed shard simulates only what it
    // lost. The gather is a plain sweep over the same cache.
    if (sharded)
        oprintf(io.err, "shard %d/%d: ", shard, shard_of);
    oprintf(io.err, "sweeping %zu scenarios on %d worker%s...\n",
            scenarios.size(), opts.jobs, opts.jobs == 1 ? "" : "s");
    const auto report = sweep::run_sweep(scenarios, opts);
    if (opts.cache && !quiet)
        oprintf(io.err, "cache: %zu hit%s, %zu miss%s\n",
                report.cache_hits, report.cache_hits == 1 ? "" : "s",
                report.cache_misses,
                report.cache_misses == 1 ? "" : "es");
    if (sharded) {
        oprintf(io.out,
                "shard %d/%d: %zu scenarios: %zu ok, %zu oom, "
                "%zu failed; cached in %s\n",
                shard, shard_of, scenarios.size(), report.succeeded,
                report.oom, report.failed, cache_dir.c_str());
        // The exit code covers the whole slice, cached rows
        // included: re-running a finished shard must not flip a
        // failure to 0.
        return report.failed == 0 ? kExitOk : kExitRuntimeError;
    }

    sweep::write_sweep_table(report, io.out);
    const std::string csv = args.value("csv", "");
    if (!csv.empty()) {
        sweep::write_sweep_csv_file(report, csv);
        oprintf(io.out, "wrote sweep CSV to %s\n", csv.c_str());
    }
    const std::string json = args.value("json", "");
    if (!json.empty()) {
        sweep::write_sweep_json_file(report, json);
        oprintf(io.out, "wrote sweep JSON to %s\n", json.c_str());
    }
    // Deterministic simulated OOMs are findings, not failures; only
    // scenario *errors* make the sweep fail (exit 1 — the run was
    // valid, the workload broke).
    return report.failed == 0 ? kExitOk : kExitRuntimeError;
}

}  // namespace

CommandRegistry
make_default_registry()
{
    CommandRegistry registry;

    {
        Command c;
        c.name = "characterize";
        c.summary = "run one workload and print the full "
                    "characterization report";
        c.description =
            "Runs one workload and prints the full paper-style "
            "report: event\ncounts, the iterative-pattern verdict, "
            "the ATI distribution, the\ninput/parameter/"
            "intermediate occupation breakdown, lifetime\n"
            "statistics, outliers, and Eq. 1 swap advice.";
        c.workload = true;
        c.default_model = "mlp";
        c.flags = {
            {"csv", FlagKind::kValue, "PATH", "",
             "export the raw event trace as CSV"},
            {"chrome", FlagKind::kValue, "PATH", "",
             "export a Chrome trace (load in chrome://tracing)"},
            {"series", FlagKind::kValue, "PATH", "",
             "export the occupancy time series as CSV"},
            {"no-gantt", FlagKind::kBool, "", "",
             "suppress the ASCII Gantt chart"},
        };
        c.example = "pinpoint_cli characterize --model resnet50 "
                    "--batch 32 --chrome trace.json";
        c.run = cmd_characterize;
        registry.add(std::move(c));
    }
    {
        Command c;
        c.name = "swap";
        c.summary = "plan Eq. 1 swapping and validate it on the "
                    "shared PCIe link";
        c.description =
            "Plans Eq. 1 swapping for a workload and (optionally) "
            "validates the\nplan by executing it on the shared "
            "full-duplex PCIe link.";
        c.workload = true;
        c.default_model = "resnet50";
        c.flags = {
            {"safety-factor", FlagKind::kValue, "F", "1.0",
             "required headroom: a gap qualifies when gap >= F * "
             "round_trip(size)"},
            {"min-block", FlagKind::kValue, "MiB", "8",
             "ignore blocks smaller than this many MiB"},
            {"allow-overhead", FlagKind::kBool, "", "",
             "also schedule non-hideable swaps and price their "
             "stall"},
            {"validate", FlagKind::kBool, "", "",
             "execute on the shared link; report measured savings, "
             "stall, queue delay, link occupancy"},
            {"csv", FlagKind::kValue, "PATH", "",
             "per-decision schedule export (measured columns when "
             "validating)"},
            {"json", FlagKind::kValue, "PATH", "",
             "plan + execution summary and per-decision schedule"},
        };
        c.example = "pinpoint_cli swap --model resnet50 --batch 16 "
                    "--validate --csv schedule.csv";
        c.run = cmd_swap;
        registry.add(std::move(c));
    }
    {
        Command c;
        c.name = "relief";
        c.summary = "compare swap / recompute / peer / hybrid "
                    "relief under one overhead budget";
        c.description =
            "The unified memory-relief planner: compares swap-only, "
            "recompute-only,\npeer-offload (multi-device workloads), "
            "and hybrid strategies for one\nworkload under one "
            "overhead budget, prints every available strategy\nside "
            "by side, and exports the selected strategy's "
            "per-decision\nschedule. Recompute costs are the "
            "producing layers' *measured*\nforward times from the "
            "trace; swap legs are scheduled on the shared\nPCIe "
            "link and peer legs on the interconnect of --topology. "
            "The hybrid\nstrategy is never worse than any pure "
            "strategy at the same budget.";
        c.workload = true;
        c.default_model = "resnet50";
        c.flags = {
            {"strategy", FlagKind::kValue, "S", "hybrid",
             "swap, recompute, peer, or hybrid — which strategy's "
             "detail/export to select (every available one is "
             "printed; peer needs --devices >= 2)"},
            {"budget-ms", FlagKind::kValue, "N", "unlimited",
             "total predicted overhead the selection may spend, in "
             "milliseconds; hideable swaps are free and exempt"},
            {"slo-ms", FlagKind::kValue, "N", "stream p50",
             "per-request latency SLO for --mode infer workloads, "
             "in milliseconds; no single overhead-bearing decision "
             "may stall a request beyond it"},
            {"safety-factor", FlagKind::kValue, "F", "1.0",
             "Eq. 1 headroom for the swap legs"},
            {"min-block", FlagKind::kValue, "MiB", "8",
             "ignore blocks smaller than this many MiB"},
            {"csv", FlagKind::kValue, "PATH", "",
             "per-decision schedule of the selected strategy"},
            {"json", FlagKind::kValue, "PATH", "",
             "plan + scheduled-execution summary and decisions"},
        };
        c.example = "pinpoint_cli relief --model resnet50 --batch "
                    "16 --strategy hybrid --budget-ms 50";
        c.run = cmd_relief;
        registry.add(std::move(c));
    }
    {
        Command c;
        c.name = "bandwidth";
        c.summary =
            "print the simulated bandwidthTest asymptotes";
        c.description =
            "Prints the simulated `bandwidthTest` asymptotes (the "
            "paper's\nmethodology for measuring the host link) for "
            "a device preset.";
        c.flags = {
            {"device", FlagKind::kValue, "D", "titan-x",
             "device preset: " +
                 join_names(sim::device_spec_names())},
        };
        c.example = "pinpoint_cli bandwidth --device a100";
        c.run = cmd_bandwidth;
        registry.add(std::move(c));
    }
    {
        Command c;
        c.name = "models";
        c.summary = "list model registry names";
        c.description =
            "Lists every model registry name, one per line on "
            "stdout (test-only\nvariants are annotated on stderr so "
            "`models | xargs` stays scriptable).";
        c.example = "pinpoint_cli models";
        c.run = cmd_models;
        registry.add(std::move(c));
    }
    {
        Command c;
        c.name = "sweep";
        c.summary = "run a scenario grid in parallel and aggregate "
                    "the results";
        c.description =
            "Runs a declarative model × batch × allocator × device "
            "preset ×\nreplica count × topology × mode × dtype grid "
            "on a worker pool, each\nscenario in an "
            "isolated session, and "
            "aggregates everything into one deterministic\nreport "
            "(table to stdout, optional CSV/JSON). Results are "
            "ordered by\ngrid position, so `--jobs 8` and `--jobs "
            "1` produce byte-identical\nexports; multi-device rows "
            "add interconnect busy-fraction and\nall-reduce stall "
            "columns. A deterministic simulated OOM is a capacity\n"
            "*finding*: the row gets status `oom` and the sweep "
            "still exits 0.\nOnly scenario *errors* exit 1.\n\n"
            "A sharded sweep runs `--shard i/N --cache-dir DIR` once "
            "per shard;\neach shard stores its rows in the result "
            "cache, and re-running a\nkilled shard simulates only "
            "the rows it lost. A plain `sweep` over\nthe same grid "
            "and `--cache-dir` then gathers every row (simulating\n"
            "any a missing shard never wrote); its exports are "
            "byte-identical\nto a single-process run.";
        c.flags = {
            {"jobs", FlagKind::kValue, "N", "1",
             "worker threads; results are byte-identical for any N"},
            {"models", FlagKind::kValue, "a,b", "full zoo",
             "comma-separated model filter"},
            {"batches", FlagKind::kValue, "16,32", "16,32,64",
             "batch-size axis"},
            {"allocators", FlagKind::kValue, "a,b", "all three",
             "allocator axis"},
            {"device-presets", FlagKind::kValue, "a,b", "titan-x",
             "device preset axis"},
            {"devices", FlagKind::kValue, "1,2", "1",
             "data-parallel replica-count axis"},
            {"topologies", FlagKind::kValue, "a,b", "pcie",
             "interconnect preset axis: " +
                 join_names(sim::interconnect_names())},
            {"modes", FlagKind::kValue, "a,b", "train",
             "session-mode axis: " +
                 join_names(runtime::session_mode_names())},
            {"dtypes", FlagKind::kValue, "a,b", "f32",
             "tensor-dtype axis: f32, f16, i8"},
            {"iterations", FlagKind::kValue, "K", "5",
             "iterations per scenario"},
            {"requests", FlagKind::kValue, "N", "32",
             "requests per infer-mode scenario"},
            {"arrival", FlagKind::kValue, "A", "bursty",
             "arrival process for infer-mode scenarios: " +
                 join_names(runtime::arrival_kind_names())},
            {"csv", FlagKind::kValue, "PATH", "",
             "full-report CSV export"},
            {"json", FlagKind::kValue, "PATH", "",
             "full-report JSON export"},
            {"no-swap-plan", FlagKind::kBool, "", "",
             "skip swap *and* relief planning per trace"},
            {"quiet", FlagKind::kBool, "", "",
             "suppress per-scenario progress on stderr"},
            {"cache-dir", FlagKind::kValue, "DIR", "",
             "on-disk result cache: scenarios seen before (same "
             "full spec, planner toggle, and result schema) are "
             "answered from disk instead of re-simulated"},
            {"no-cache", FlagKind::kBool, "", "",
             "ignore --cache-dir for this run (force fresh "
             "simulation)"},
            {"shard", FlagKind::kValue, "i/N", "",
             "run only scenarios with index % N == i into "
             "--cache-dir (required); a re-run simulates only rows "
             "not yet cached, and a plain sweep over the same grid "
             "and cache gathers the exports"},
            {"progress", FlagKind::kBool, "", "",
             "stderr ticker: scenarios done/total, cache hits, "
             "ETA (never touches stdout exports)"},
        };
        c.example = "pinpoint_cli sweep --jobs 8 --models "
                    "resnet50,vgg16 --batches 16,32 --devices 1,2,4 "
                    "--csv zoo.csv";
        c.run = cmd_sweep;
        registry.add(std::move(c));
    }
    {
        Command c;
        c.name = "help";
        c.summary = "show usage, or 'help <command>' for the flag "
                    "reference";
        c.description =
            "Shows the top-level usage, the detailed help of one "
            "command\n(`help <command>`), or the full Markdown "
            "reference the committed\n`docs/CLI.md` is generated "
            "from (`help --markdown`).";
        c.flags = {
            {"markdown", FlagKind::kBool, "", "",
             "print the full CLI reference as Markdown "
             "(docs/CLI.md is this output)"},
        };
        c.example = "pinpoint_cli help sweep";
        // Dispatched inside run_cli (needs the registry itself).
        c.run = nullptr;
        registry.add(std::move(c));
    }
    return registry;
}

}  // namespace cli
}  // namespace pinpoint
