/**
 * @file
 * The zoo-sweep workload: one cold `sweep --jobs 4` over the default
 * 126-scenario grid (model filter in seed-permuted order) into a
 * fresh --cache-dir, then warm passes over the same directory; cycle
 * after cycle. The untraced run goes through cli::run_cli; the traced
 * run calls sweep::run_sweep with the same grid and options, then
 * probes the serial baseline, grid-order scheduling, the result cache,
 * the record codec, the exporters, and each scenario's plan build,
 * engine and allocator.
 */
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "alloc/device_memory.h"
#include "api/workload.h"
#include "bench.h"
#include "cli/commands.h"
#include "layers.h"
#include "nn/model_registry.h"
#include "runtime/session.h"
#include "sweep/cache.h"
#include "sweep/driver.h"
#include "sweep/export.h"
#include "sweep/scenario.h"

namespace perfbench {

namespace fs = std::filesystem;
namespace pp = pinpoint;

namespace {

/** Worker threads of every sweep (min(4, nproc) on the 4-core host). */
constexpr int kJobs = 4;
/** Iterations per scenario. */
constexpr int kIterations = 20;
/** Warm passes after each cold pass. */
constexpr int kWarmPasses = 10;

/** Sums over the ok rows of one sweep CSV. */
struct CsvTotals {
    std::size_t ok = 0;
    std::size_t oom = 0;
    std::size_t error = 0;
    double events = 0.0;
    double iterations = 0.0;
    double peak_bytes = 0.0;
    double end_time_ns = 0.0;
    double relief_saved_bytes = 0.0;
    double relief_overhead_ns = 0.0;
};

std::vector<std::string>
split(const std::string &line, char sep)
{
    std::vector<std::string> fields;
    std::string field;
    std::istringstream is(line);
    while (std::getline(is, field, sep))
        fields.push_back(field);
    if (!line.empty() && line.back() == sep)
        fields.push_back("");
    return fields;
}

/** @return the totals of a sweep CSV export (status via column). */
CsvTotals
csv_totals(const std::string &csv)
{
    CsvTotals t;
    std::istringstream is(csv);
    std::string line;
    if (!std::getline(is, line))
        return t;
    const std::vector<std::string> header = split(line, ',');
    const auto column = [&](const char *name) {
        for (std::size_t i = 0; i < header.size(); ++i)
            if (header[i] == name)
                return i;
        return header.size();
    };
    const std::size_t status = column("status");
    const std::size_t events = column("event_count");
    const std::size_t iterations = column("iterations");
    const std::size_t peak = column("peak_total_bytes");
    const std::size_t end_time = column("end_time_ns");
    const std::size_t saved = column("relief_peak_reduction_bytes");
    const std::size_t overhead = column("relief_overhead_ns");
    while (std::getline(is, line)) {
        const std::vector<std::string> f = split(line, ',');
        if (f.size() != header.size())
            continue;
        if (f[status] == "oom") {
            ++t.oom;
            continue;
        }
        if (f[status] != "ok") {
            ++t.error;
            continue;
        }
        ++t.ok;
        t.events += std::stod(f[events]);
        t.iterations += std::stod(f[iterations]);
        t.peak_bytes += std::stod(f[peak]);
        t.end_time_ns += std::stod(f[end_time]);
        t.relief_saved_bytes += std::stod(f[saved]);
        t.relief_overhead_ns += std::stod(f[overhead]);
    }
    return t;
}

/** @return sweep stdout with the host wall time of its summary masked. */
std::string
mask_wall(const std::string &out)
{
    const std::size_t jobs = out.rfind(" s (jobs=");
    const std::size_t in = out.rfind(" in ", jobs);
    if (jobs == std::string::npos || in == std::string::npos)
        return out;
    return out.substr(0, in + 4) + "<wall>" + out.substr(jobs);
}

/** The generated command lines of one run. */
struct ZooPlan {
    std::vector<std::string> models;
    std::string cache_dir;
    std::string cold_csv;
    std::string warm_csv;
    std::vector<std::string> cold_args;
    std::vector<std::string> warm_args;
};

ZooPlan
make_plan(std::uint64_t seed, const std::string &work_dir)
{
    std::vector<std::string> zoo;
    for (const auto &entry : pp::nn::model_registry())
        if (entry.in_default_zoo)
            zoo.push_back(entry.name);
    ZooPlan plan;
    std::string filter;
    for (std::size_t i : permutation(zoo.size(), seed)) {
        plan.models.push_back(zoo[i]);
        filter += (filter.empty() ? "" : ",") + zoo[i];
    }
    plan.cache_dir = work_dir + "/cache";
    plan.cold_csv = work_dir + "/cold.csv";
    plan.warm_csv = work_dir + "/warm.csv";
    const std::vector<std::string> base = {
        "sweep",         "--jobs",         std::to_string(kJobs),
        "--iterations",  std::to_string(kIterations),
        "--models",      filter,
        "--cache-dir",   plan.cache_dir,
        "--quiet",       "--csv"};
    plan.cold_args = base;
    plan.cold_args.push_back(plan.cold_csv);
    plan.warm_args = base;
    plan.warm_args.push_back(plan.warm_csv);
    return plan;
}

/** Host seconds of one cycle's sweeps. */
struct Cycle {
    double cold_s = 0.0;
    std::vector<double> warm_s;
};

/** One cold pass and kWarmPasses warm passes through the CLI. */
Cycle
untraced_cycle(const pp::cli::CommandRegistry &registry,
               const ZooPlan &plan, const std::string &work_dir,
               std::string &cold_csv, Checker &checker)
{
    fs::remove_all(plan.cache_dir);
    Cycle cycle;
    const auto checked = [&](const std::vector<std::string> &args,
                             const char *key) {
        const CliRun run = run_cli(registry, args);
        checker.check(run.rc == 0, std::string(key) + " exit " +
                                       std::to_string(run.rc) + ": " +
                                       run.err);
        checker.expect("stdout", key,
                       sorted_lines_digest(mask_wall(
                           replace_all(run.out, work_dir, "<work>"))));
        return run.seconds;
    };
    cycle.cold_s = checked(plan.cold_args, "sweep-cold");
    // Warm passes run on the heap the cold pass left, as the warm
    // half of a cycle is meant to; only the cycle starts clean.
    release_heap();
    cold_csv = read_file(plan.cold_csv);
    for (int i = 0; i < kWarmPasses; ++i)
        cycle.warm_s.push_back(checked(plan.warm_args, "sweep-warm"));
    checker.check(read_file(plan.warm_csv) == cold_csv,
                  "warm sweep CSV differs from the cold sweep CSV");
    return cycle;
}

/** Pool timing of one traced sweep, from its progress callback. */
struct PoolTiming {
    double wall_s = 0.0;
    /** From fewer pending scenarios than workers to the last result. */
    double tail_s = 0.0;
};

pp::sweep::SweepReport
traced_sweep(const std::vector<pp::sweep::Scenario> &scenarios,
             const pp::sweep::ResultCache &cache, bool cost_order,
             PoolTiming &timing)
{
    pp::sweep::SweepOptions opts;
    opts.jobs = kJobs;
    opts.cache = &cache;
    opts.cost_order = cost_order;
    double tail_start = 0.0;
    double last = 0.0;
    opts.on_progress = [&](const pp::sweep::SweepProgress &p) {
        last = now_s();
        if (tail_start == 0.0 &&
            p.total - p.done < static_cast<std::size_t>(kJobs))
            tail_start = last;
    };
    const double start = now_s();
    pp::sweep::SweepReport report = pp::sweep::run_sweep(scenarios, opts);
    timing.wall_s = now_s() - start;
    timing.tail_s = tail_start > 0.0 ? last - tail_start : 0.0;
    return report;
}

/** The CLI's output of one sweep: table and CSV file. */
void
export_like_cli(const pp::sweep::SweepReport &report,
                const std::string &csv)
{
    std::ostringstream table;
    pp::sweep::write_sweep_table(report, table);
    pp::sweep::write_sweep_csv_file(report, csv);
}

/** Accumulated spans and pool timings of the traced cycles. */
struct TracedCycles {
    Tracer per_pass;
    double seconds = 0.0;
    double tail_s = 0.0;
    std::size_t hits = 0;
    std::size_t lookups = 0;
    std::vector<double> cold_s;
    pp::sweep::SweepReport cold_report;
};

/** One cold and kWarmPasses warm sweeps through sweep::run_sweep. */
void
traced_cycle(const std::vector<pp::sweep::Scenario> &scenarios,
             const ZooPlan &plan, TracedCycles &traced)
{
    fs::remove_all(plan.cache_dir);
    const pp::sweep::ResultCache cache(plan.cache_dir);
    PoolTiming timing;
    double start = now_s();
    {
        Tracer::Span span(traced.per_pass, "sweep.cold");
        traced.cold_report = traced_sweep(scenarios, cache, true, timing);
        export_like_cli(traced.cold_report, plan.cold_csv);
    }
    traced.seconds += now_s() - start;
    release_heap();
    traced.cold_s.push_back(timing.wall_s);
    traced.tail_s += timing.tail_s;
    traced.hits += traced.cold_report.cache_hits;
    traced.lookups += traced.cold_report.results.size();
    for (int i = 0; i < kWarmPasses; ++i) {
        start = now_s();
        {
            Tracer::Span span(traced.per_pass, "sweep.warm");
            PoolTiming warm;
            const pp::sweep::SweepReport report =
                traced_sweep(scenarios, cache, true, warm);
            export_like_cli(report, plan.warm_csv);
            traced.hits += report.cache_hits;
            traced.lookups += report.results.size();
        }
        traced.seconds += now_s() - start;
    }
}

}  // namespace

RunResult
run_zoo_sweep(const Options &options, Checker &checker)
{
    pp::cli::CommandRegistry registry;
    ZooPlan plan;
    RunResult result;
    result.setup_s = timed_setup(5, [&] {
        registry = pp::cli::make_default_registry();
        plan = make_plan(options.seed, options.work_dir);
        fs::remove_all(options.work_dir);
        fs::create_directories(options.work_dir);
        for (const std::string &model : plan.models)
            (void)pp::api::WorkloadSpec::from_args({"--model", model})
                .build();
        // Warm the sweep path (pool start-up, first cache use) on a
        // small grid outside the cache the timed passes use.
        const CliRun warm = run_cli(
            registry, {"sweep", "--models", "resnet50", "--batches", "8",
                       "--iterations", "2", "--jobs",
                       std::to_string(kJobs), "--quiet", "--cache-dir",
                       options.work_dir + "/warm-up-cache"});
        checker.check(warm.rc == 0, "warm-up sweep exit " +
                                        std::to_string(warm.rc));
    });

    pp::sweep::SweepGrid grid;
    grid.models = plan.models;
    grid.iterations = kIterations;
    const std::vector<pp::sweep::Scenario> scenario_list =
        pp::sweep::expand_grid(grid);
    std::vector<Cycle> cycles;
    std::string cold_csv;
    TracedCycles traced;
    const double deadline = now_s() + options.seconds;
    const bool recording = !options.record.empty();
    do {
        cycles.push_back(untraced_cycle(registry, plan, options.work_dir,
                                        cold_csv, checker));
        // Traced cycles alternate with untraced ones, so both see the
        // same machine and the overhead compares like with like.
        if (options.trace)
            traced_cycle(scenario_list, plan, traced);
    } while (!recording && (cycles.size() < 2 || now_s() < deadline));

    const CsvTotals totals = csv_totals(cold_csv);
    checker.check(totals.ok + totals.oom == 126 && totals.error == 0,
                  "cold sweep rows: " + std::to_string(totals.ok) +
                      " ok, " + std::to_string(totals.oom) + " oom, " +
                      std::to_string(totals.error) + " error");
    checker.expect("rows", "ok/oom",
                   std::to_string(totals.ok) + "/" +
                       std::to_string(totals.oom));

    std::vector<double> cold_s;
    std::vector<double> warm_s;
    std::vector<double> cycle_s;
    for (const Cycle &c : cycles) {
        cold_s.push_back(c.cold_s);
        double total = c.cold_s;
        for (double w : c.warm_s) {
            warm_s.push_back(w);
            total += w;
        }
        cycle_s.push_back(total);
    }
    std::fprintf(stderr, "cold seconds:");
    for (double s : cold_s)
        std::fprintf(stderr, " %.3f", s);
    std::fprintf(stderr, "\n");
    const double scenarios = static_cast<double>(totals.ok + totals.oom);
    const double cold = median(cold_s);
    std::fprintf(stderr,
                 "zoo-sweep: cold p50 %.1f ms over %zu samples, warm p50 "
                 "%.2f ms over %zu samples\n",
                 1e3 * cold, cold_s.size(), 1e3 * median(warm_s),
                 warm_s.size());

    if (!options.trace) {
        result.values = {
            {"wall_s", median(cycle_s)},
            {"events_per_s", totals.events / cold},
            {"study_p50_ms", 1e3 * kJobs * cold / scenarios},
            {"scenarios_per_s", scenarios / cold},
            {"sweep_warm_ms", 1e3 * median(warm_s)},
            {"requests_per_s", totals.iterations / cold},
            {"peak_rss_mb", peak_rss_mb()},
            {"relief_saved_frac",
             totals.relief_saved_bytes / totals.peak_bytes},
            {"relief_overhead_frac",
             totals.relief_overhead_ns / totals.end_time_ns},
        };
        return result;
    }

    const pp::sweep::SweepReport &cold_report = traced.cold_report;
    double untraced_s = 0.0;
    for (double s : cycle_s)
        untraced_s += s;
    checker.check(cold_report.succeeded == totals.ok &&
                      cold_report.oom == totals.oom &&
                      cold_report.failed == 0,
                  "traced sweep rows differ from the CLI run");

    // Probes, once per run.
    Tracer probe;
    {
        Tracer::Span span(probe, "sweep.serial");
        for (const pp::sweep::Scenario &s : scenario_list)
            (void)pp::sweep::run_scenario(s, true);
    }
    const double serial_s = probe.total_ms("sweep.serial") / 1e3;
    fs::remove_all(plan.cache_dir);
    PoolTiming grid_order;
    {
        const pp::sweep::ResultCache cache(plan.cache_dir);
        (void)traced_sweep(scenario_list, cache, false, grid_order);
    }

    const std::string store_dir = options.work_dir + "/store-probe";
    fs::remove_all(store_dir);
    const pp::sweep::ResultCache store(store_dir);
    double store_s = 0.0;
    double load_s = 0.0;
    double codec_s = 0.0;
    bool codec_ok = true;
    for (const pp::sweep::ScenarioResult &r : cold_report.results) {
        double start = now_s();
        store.store(r.scenario, true, r, 0);
        store_s += now_s() - start;
        pp::sweep::ScenarioResult loaded;
        std::uint64_t hint = 0;
        start = now_s();
        const pp::sweep::CacheLookup lookup =
            store.load(r.scenario, true, loaded, hint);
        load_s += now_s() - start;
        codec_ok = codec_ok && lookup == pp::sweep::CacheLookup::kHit;
        start = now_s();
        const std::string record = pp::sweep::encode_result_record(r);
        const pp::sweep::ScenarioResult decoded =
            pp::sweep::decode_result_record(split(record, '\n'), 0);
        codec_s += now_s() - start;
        codec_ok =
            codec_ok && pp::sweep::encode_result_record(decoded) == record;
    }
    checker.check(codec_ok, "cache or codec round trip failed");
    {
        Tracer::Span span(probe, "sweep.export");
        const std::string csv = pp::sweep::sweep_csv_string(cold_report);
        (void)pp::sweep::sweep_json_string(cold_report);
        checker.check(csv == cold_csv,
                      "traced sweep CSV differs from the CLI export");
    }

    // Each scenario's plan build, engine and allocator, serially.
    double events = 0.0;
    for (const pp::sweep::Scenario &s : scenario_list) {
        try {
            const pp::runtime::SessionResult r =
                traced_training(s, s.build(), probe);
            events += static_cast<double>(r.trace.size());
            replay_allocations(r.trace, s.allocator, s, probe);
        } catch (const pp::alloc::DeviceOomError &) {
            // The grid's oom rows: a finding, not a failure.
        }
    }
    checker.check(events == totals.events,
                  "traced scenario events differ from the sweep CSV");

    const double passes = static_cast<double>(cycles.size());
    const double n_results =
        static_cast<double>(cold_report.results.size());
    const double pool = kJobs * median(traced.cold_s);
    const auto ms = [&](const char *name) {
        return layer_ms(traced.per_pass, passes, probe, name);
    };
    const double engine_events = probe.counted("runtime.engine_events");
    const double alloc_ops = probe.counted("alloc.ops");
    result.values = {
        {"runtime.plan_build_ms", ms("runtime.plan_build")},
        {"runtime.engine_ms", ms("runtime.engine")},
        {"runtime.engine_ns_per_event",
         engine_events > 0 ? 1e6 * ms("runtime.engine") / engine_events
                           : 0.0},
        {"alloc.replay_ns_per_op",
         alloc_ops > 0 ? 1e6 * ms("alloc.replay") / alloc_ops : 0.0},
        {"alloc.ops", alloc_ops},
        {"trace.events", events},
        {"sweep.cold_ms", ms("sweep.cold")},
        {"sweep.warm_ms", ms("sweep.warm") / kWarmPasses},
        {"sweep.serial_scenario_ms", 1e3 * serial_s},
        {"sweep.pool_busy_frac", serial_s / pool},
        {"sweep.tail_ms", 1e3 * traced.tail_s / passes},
        {"sweep.tail_ms.grid_order", 1e3 * grid_order.tail_s},
        {"sweep.pool_busy_frac.grid_order",
         serial_s / (kJobs * grid_order.wall_s)},
        {"sweep.cache_store_us", 1e6 * store_s / n_results},
        {"sweep.cache_load_us", 1e6 * load_s / n_results},
        {"sweep.codec_us", 1e6 * codec_s / n_results},
        {"sweep.export_ms", ms("sweep.export")},
        {"sweep.cache_hit_ratio",
         static_cast<double>(traced.hits) /
             static_cast<double>(traced.lookups)},
        {"bench.trace_overhead_frac", traced.seconds / untraced_s - 1.0},
    };
    if (!options.spans.empty()) {
        std::ofstream os(options.spans);
        os << "# spans of " << cycles.size() << " traced cycles\n";
        traced.per_pass.write(os);
        os << "# probe spans, once per run\n";
        probe.write(os);
    }
    return result;
}

}  // namespace perfbench
