/**
 * @file
 * The train-deep and serve-stream workloads: one thread runs
 * `characterize` then `relief` for each study, in a seed-permuted
 * order, pass after pass. The untraced run goes through cli::run_cli;
 * the traced run makes the same library calls the two commands make,
 * with a span around each, then probes the layers the commands reach
 * only from inside (allocator, swap planner, link scheduler, ring
 * all-reduce, trace reload).
 */
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "alloc/allocator.h"
#include "alloc/device_memory.h"
#include "analysis/report.h"
#include "analysis/swap_model.h"
#include "api/study.h"
#include "api/workload.h"
#include "bench.h"
#include "cli/commands.h"
#include "core/types.h"
#include "layers.h"
#include "relief/strategy_planner.h"
#include "runtime/data_parallel.h"
#include "runtime/engine.h"
#include "runtime/plan_builder.h"
#include "runtime/request_stream.h"
#include "runtime/session.h"
#include "sim/clock.h"
#include "sim/cost_model.h"
#include "sim/device_spec.h"
#include "sim/link_scheduler.h"
#include "sim/topology.h"
#include "swap/executor.h"
#include "swap/planner.h"
#include "trace/csv.h"

namespace perfbench {

namespace fs = std::filesystem;
namespace pp = pinpoint;

namespace {

/** One study of a workload: its flags and relief settings. */
struct StudyDef {
    /** Stable name, used in reference keys and file names. */
    std::string key;
    /** The shared workload flags, as a user would type them. */
    std::vector<std::string> workload;
    /** relief --budget-ms; negative = the command's default. */
    double budget_ms = -1.0;
    /** characterize exports the trace with --csv. */
    bool csv = false;
};

std::vector<StudyDef>
study_defs(const std::string &workload)
{
    if (workload == "train-deep")
        return {
            {"resnet152-b32",
             {"--model", "resnet152", "--batch", "32", "--iterations",
              "20"},
             100.0,
             true},
            {"transformer-b32",
             {"--model", "transformer", "--batch", "32", "--iterations",
              "20"},
             50.0,
             true},
            {"inception-b32",
             {"--model", "inception", "--batch", "32", "--iterations",
              "20"},
             75.0,
             true},
            {"resnet50-b32-dp4-nvlink",
             {"--model", "resnet50", "--batch", "32", "--iterations",
              "20", "--devices", "4", "--topology", "nvlink"},
             50.0,
             true},
        };
    return {
        {"transformer-f16-infer",
         {"--model", "transformer", "--dtype", "f16", "--mode", "infer",
          "--requests", "1024", "--arrival", "bursty"},
         -1.0,
         false},
        {"resnet50-b8-infer",
         {"--model", "resnet50", "--batch", "8", "--mode", "infer",
          "--requests", "1024", "--arrival", "bursty"},
         -1.0,
         false},
    };
}

/** @return the workload flags of the set-up's warm-up study. */
std::vector<std::string>
warm_up_flags(const std::string &workload)
{
    if (workload == "train-deep")
        return {"--model", "resnet50", "--batch", "32", "--iterations", "2"};
    return {"--model", "resnet50", "--batch", "8", "--mode", "infer",
            "--requests", "32"};
}

/** A study with its generated command lines. */
struct Prepared {
    StudyDef def;
    pp::api::WorkloadSpec spec;
    std::string csv_path;
    std::string json_path;
    std::vector<std::string> characterize_args;
    std::vector<std::string> relief_args;
};

Prepared
prepare(const StudyDef &def, const std::string &work_dir)
{
    Prepared p;
    p.def = def;
    p.spec = pp::api::WorkloadSpec::from_args(def.workload);
    p.csv_path = work_dir + "/" + def.key + ".csv";
    p.json_path = work_dir + "/" + def.key + "-relief.json";
    p.characterize_args = {"characterize"};
    p.characterize_args.insert(p.characterize_args.end(),
                               def.workload.begin(), def.workload.end());
    if (def.csv) {
        p.characterize_args.push_back("--csv");
        p.characterize_args.push_back(p.csv_path);
    }
    p.relief_args = {"relief"};
    p.relief_args.insert(p.relief_args.end(), def.workload.begin(),
                         def.workload.end());
    if (def.budget_ms >= 0.0) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%g", def.budget_ms);
        p.relief_args.push_back("--budget-ms");
        p.relief_args.push_back(buf);
    }
    p.relief_args.push_back("--json");
    p.relief_args.push_back(p.json_path);
    return p;
}

/** What the untraced commands reported for one study. */
struct Observed {
    /** Last characterize stdout, for the traced report check. */
    std::string characterize_out;
    /** Trace events (characterize report header). */
    long long events = -1;
    /** Simulated trace span in ns (characterize report header). */
    long long span_ns = -1;
    /** Hybrid relief plan, from the relief JSON export. */
    long long decisions = -1;
    long long saved_bytes = -1;
    long long original_peak = -1;
    long long overhead_ns = -1;
    /** Host seconds of every characterize+relief pair. */
    std::vector<double> pair_s;
};

/**
 * Parses "N memory behaviors over T (" from the report header.
 * @return false when the header is not there.
 */
bool
parse_header(const std::string &out, long long &events, long long &span_ns)
{
    const std::size_t line = out.find('\n');
    const std::size_t over = out.find(" memory behaviors over ", line);
    if (line == std::string::npos || over == std::string::npos)
        return false;
    events = std::atoll(out.c_str() + line + 1);
    const char *t = out.c_str() + over + 23;
    char *unit = nullptr;
    const double value = std::strtod(t, &unit);
    double scale = 0.0;
    if (std::string(unit, 3) == " s ")
        scale = 1e9;
    else if (std::string(unit, 4) == " ms ")
        scale = 1e6;
    else if (std::string(unit, 4) == " us ")
        scale = 1e3;
    span_ns = static_cast<long long>(value * scale + 0.5);
    return events > 0 && span_ns > 0;
}

/** @return the relief options the CLI builds for @p def. */
pp::api::StudyOptions
relief_options(const StudyDef &def)
{
    pp::api::StudyOptions opts;
    opts.relief.safety_factor = 1.0;
    opts.relief.min_block_bytes = 8 * 1024 * 1024;
    if (def.budget_ms >= 0.0)
        opts.relief.overhead_budget = static_cast<pp::TimeNs>(
            def.budget_ms * static_cast<double>(pp::kNsPerMs));
    return opts;
}

/** @return the report options the characterize command builds. */
pp::analysis::ReportOptions
report_options(const pp::api::WorkloadSpec &spec,
               const pp::api::Study &study)
{
    pp::analysis::ReportOptions opts;
    const std::string run_length =
        study.inference()
            ? " x" + std::to_string(study.requests()) + " requests"
            : " x" + std::to_string(spec.iterations) + " iterations";
    opts.title = spec.model + " batch " + std::to_string(spec.batch) +
                 run_length + " on " + study.device().name;
    opts.link = pp::analysis::LinkBandwidth{study.device().d2h_bw_bps,
                                            study.device().h2d_bw_bps};
    opts.gantt = true;
    return opts;
}

/** @return the hybrid report of @p study's relief facet. */
const pp::relief::ReliefReport &
hybrid(const pp::api::Study &study)
{
    return study.relief(pp::relief::Strategy::kHybrid);
}

/** @return the peak of the trace exported to @p csv, reloaded. */
std::size_t
reloaded_peak(const std::string &csv, const pp::api::WorkloadSpec &spec)
{
    return pp::api::Study::from_trace(
               pp::trace::read_csv_file(csv),
               pp::sim::device_spec_by_name(spec.device))
        .peak_occupancy_bytes();
}

/** Runs every study once through the CLI. @return the pass seconds. */
double
untraced_pass(const pp::cli::CommandRegistry &registry,
              const std::vector<Prepared> &studies,
              const std::vector<std::size_t> &order,
              const std::string &work_dir, bool first,
              std::vector<Observed> &seen, Checker &checker)
{
    double pass_s = 0.0;
    for (std::size_t i : order) {
        const Prepared &s = studies[i];
        Observed &o = seen[i];
        rotate_cpu();
        const CliRun c = run_cli(registry, s.characterize_args);
        release_heap();
        const CliRun r = run_cli(registry, s.relief_args);
        release_heap();
        pass_s += c.seconds + r.seconds;
        o.pair_s.push_back(c.seconds + r.seconds);

        const std::string &key = s.def.key;
        checker.check(c.rc == 0, "characterize " + key + " exit " +
                                     std::to_string(c.rc) + ": " + c.err);
        checker.check(r.rc == 0, "relief " + key + " exit " +
                                     std::to_string(r.rc) + ": " + r.err);
        checker.expect("stdout", "characterize " + key,
                       digest(replace_all(c.out, work_dir, "<work>")));
        checker.expect("stdout", "relief " + key,
                       digest(replace_all(r.out, work_dir, "<work>")));
        const std::string json = read_file(s.json_path);
        checker.expect("relief-json", key, digest(json));
        o.characterize_out = c.out;
        if (!first)
            continue;
        checker.check(parse_header(c.out, o.events, o.span_ns),
                      "characterize " + key + ": no report header");
        o.decisions = json_int(json, "decisions");
        o.saved_bytes = json_int(json, "measured_peak_reduction_bytes");
        o.original_peak = json_int(json, "original_peak_bytes");
        o.overhead_ns = json_int(json, "measured_overhead_ns");
        checker.check(o.decisions >= 0 && o.saved_bytes >= 0 &&
                          o.original_peak > 0 && o.overhead_ns >= 0,
                      "relief " + key + ": incomplete JSON export");
        if (s.def.csv) {
            // The exported trace must reload to the same peak.
            const std::size_t peak = reloaded_peak(s.csv_path, s.spec);
            checker.check(static_cast<long long>(peak) == o.original_peak,
                          "reloaded " + key + " peak " +
                              std::to_string(peak) + " != " +
                              std::to_string(o.original_peak));
            checker.expect("reload-peak", key, std::to_string(peak));
        }
    }
    return pass_s;
}

/** Counts of one traced study, compared with the untraced run. */
struct TracedCounts {
    std::size_t events = 0;
    std::size_t decisions = 0;
    std::size_t saved_bytes = 0;
    std::string report;
};

/** @return the characterize study, built with runtime spans. */
pp::api::Study
traced_session(const pp::api::WorkloadSpec &spec,
               const pp::nn::Model &model, Tracer &tracer)
{
    if (spec.mode == pp::runtime::SessionMode::kInfer) {
        Tracer::Span span(tracer, "runtime.inference");
        return pp::api::Study(
            spec, pp::runtime::run_inference(model,
                                             spec.inference_config()));
    }
    if (spec.devices > 1) {
        Tracer::Span span(tracer, "runtime.data_parallel");
        return pp::api::Study(
            spec, pp::runtime::run_data_parallel(
                      model, spec.data_parallel_config()));
    }
    return pp::api::Study(spec, traced_training(spec, model, tracer));
}

/** Ring all-reduce of the plan's parameter bytes, as DP schedules it. */
void
probe_allreduce(const pp::api::Study &study, Tracer &probe,
                Checker &checker)
{
    const pp::runtime::DataParallelResult &dp =
        study.data_parallel_result();
    pp::sim::Topology topology(study.device(), dp.devices,
                               dp.interconnect);
    pp::TimeNs now = 0;
    pp::TimeNs last = 0;
    std::size_t legs = 0;
    {
        Tracer::Span span(probe, "sim.allreduce");
        for (int i = 0; i < study.spec().iterations; ++i) {
            now += dp.compute_iteration_time;
            const pp::sim::AllReduceResult ar =
                topology.all_reduce(dp.gradient_bytes, now);
            now = ar.finish;
            last = ar.duration();
            legs += ar.legs.size();
        }
    }
    probe.count("sim.link_transfers", static_cast<double>(legs));
    checker.check(last == dp.allreduce_time,
                  "all-reduce replay disagrees with the DP session");
}

/** Forward plan and engine of a serving study, without arrivals. */
void
probe_serving_engine(const pp::api::Study &study,
                     const pp::nn::Model &model, Tracer &probe,
                     Checker &checker)
{
    const pp::runtime::InferenceConfig config =
        study.spec().inference_config();
    pp::runtime::Plan plan;
    {
        Tracer::Span span(probe, "runtime.plan_build");
        plan = pp::runtime::build_inference_plan(
            model, config.session.batch, config.session.plan);
    }
    pp::trace::TraceRecorder recorder;
    {
        Tracer::Span span(probe, "runtime.engine");
        pp::alloc::DeviceMemory device(config.session.device.dram_bytes);
        pp::sim::VirtualClock clock;
        pp::sim::CostModel cost(config.session.device);
        std::unique_ptr<pp::alloc::Allocator> allocator =
            pp::runtime::make_session_allocator(config.session.allocator,
                                                device, clock, cost);
        pp::runtime::EngineOptions engine_options = config.session.engine;
        engine_options.continuous_trace = true;
        pp::runtime::Engine engine(plan, *allocator, clock, cost,
                                   &recorder, engine_options);
        for (int r = 0; r < config.requests; ++r)
            engine.run(1);
        engine.teardown();
    }
    probe.count("runtime.engine_events",
                static_cast<double>(recorder.size()));
    checker.check(recorder.size() == study.trace().size(),
                  "serving engine replay event count differs");
}

/** Layers the two commands reach only from inside. */
void
probe_layers(const Prepared &s, const pp::nn::Model &model,
             const pp::api::Study &study,
             const pp::api::Study &relief_study, Tracer &probe,
             Checker &checker)
{
    {
        Tracer::Span span(probe, "analysis.ati");
        (void)study.atis();
    }
    {
        Tracer::Span span(probe, "analysis.breakdown");
        (void)study.breakdown();
    }

    const pp::swap::PlannerOptions swap_options =
        pp::runtime::fill_swap_link({}, relief_study.device());
    pp::swap::SwapPlanReport plan;
    {
        Tracer::Span span(probe, "swap.plan");
        plan = pp::swap::SwapPlanner(swap_options)
                   .plan(relief_study.view());
    }
    {
        Tracer::Span span(probe, "swap.link_schedule");
        pp::sim::LinkScheduler link(swap_options.link.d2h_bps,
                                    swap_options.link.h2d_bps);
        (void)pp::swap::execute_plan(relief_study.view(), plan, link);
    }
    probe.count("swap.decisions",
                static_cast<double>(plan.decisions.size()));

    for (int k = 0; k < pp::runtime::kNumAllocatorKinds; ++k)
        replay_allocations(study.trace(),
                           static_cast<pp::runtime::AllocatorKind>(k),
                           s.spec, probe);

    if (study.data_parallel())
        probe_allreduce(study, probe, checker);
    if (study.inference())
        probe_serving_engine(study, model, probe, checker);
    if (s.def.csv) {
        pp::trace::TraceRecorder reloaded;
        {
            Tracer::Span span(probe, "trace.csv_read");
            reloaded = pp::trace::read_csv_file(s.csv_path);
        }
        checker.check(pp::api::Study::from_trace(
                          std::move(reloaded), study.device())
                              .peak_occupancy_bytes() ==
                          study.peak_occupancy_bytes(),
                      "reloaded " + s.def.key + " peak differs");
    }
}

/**
 * The library calls of one characterize+relief pair, with spans.
 * @return the pair's host seconds (probes excluded).
 */
double
traced_pair(const Prepared &s, Tracer &tracer, Tracer *probe,
            TracedCounts &counts, Checker &checker)
{
    const double start = now_s();
    double probe_s = 0.0;
    {
        s.spec.validate();
        const pp::nn::Model model = s.spec.build();
        const pp::api::Study study = traced_session(s.spec, model, tracer);
        {
            Tracer::Span facets(tracer, "api.facets");
            {
                Tracer::Span span(tracer, "analysis.freeze");
                (void)study.view();
            }
            {
                Tracer::Span span(tracer, "analysis.timeline");
                (void)study.timeline();
            }
            {
                Tracer::Span span(tracer, "analysis.pattern");
                (void)study.iteration_pattern();
            }
        }
        {
            Tracer::Span span(tracer, "analysis.report");
            std::ostringstream os;
            pp::analysis::write_report(study.view(), os,
                                       report_options(s.spec, study));
            counts.report = os.str();
        }
        if (s.def.csv) {
            Tracer::Span span(tracer, "trace.csv_write");
            pp::trace::write_csv_file(study.trace(), s.csv_path);
        }

        const pp::api::Study relief_study = [&] {
            Tracer::Span span(tracer, "api.study_run");
            return pp::api::Study::run(s.spec, relief_options(s.def));
        }();
        {
            Tracer::Span facets(tracer, "api.facets");
            {
                Tracer::Span span(tracer, "analysis.freeze");
                (void)relief_study.view();
            }
            {
                Tracer::Span span(tracer, "analysis.producers");
                (void)relief_study.view().producers();
            }
            {
                Tracer::Span span(tracer, "analysis.timeline");
                (void)relief_study.timeline();
            }
            {
                Tracer::Span span(tracer, "relief.plan_all");
                (void)relief_study.relief_all();
            }
        }
        counts.events = study.view().size();
        counts.decisions = hybrid(relief_study).decisions.size();
        counts.saved_bytes = hybrid(relief_study).measured_peak_reduction;
        tracer.count("trace.events", static_cast<double>(counts.events));
        tracer.count("relief.decisions",
                     static_cast<double>(counts.decisions));
        for (const pp::api::Study *st : {&study, &relief_study}) {
            const pp::analysis::TraceViewStats stats =
                st->view().build_stats();
            tracer.count("analysis.events_walked",
                         static_cast<double>(stats.events_walked));
            tracer.count("analysis.index_builds",
                         static_cast<double>(stats.index_builds()));
        }
        if (probe) {
            const double probe_start = now_s();
            probe_layers(s, model, study, relief_study, *probe, checker);
            probe_s = now_s() - probe_start;
        }
    }
    // Like the CLI, the pair pays for destroying its studies.
    const double pair_s = now_s() - start - probe_s;
    release_heap();
    return pair_s;
}

/**
 * Runs every study once through the layers, checking the counts
 * against the untraced run. @return the pass seconds.
 */
double
traced_pass(const std::vector<Prepared> &studies,
            const std::vector<std::size_t> &order,
            const std::vector<Observed> &seen, Tracer &tracer,
            Tracer *probe, Checker &checker)
{
    double pass_s = 0.0;
    for (std::size_t i : order) {
        TracedCounts counts;
        rotate_cpu();
        pass_s += traced_pair(studies[i], tracer, probe, counts, checker);
        const Observed &o = seen[i];
        const std::string &key = studies[i].def.key;
        checker.check(
            static_cast<long long>(counts.events) == o.events &&
                static_cast<long long>(counts.decisions) == o.decisions &&
                static_cast<long long>(counts.saved_bytes) ==
                    o.saved_bytes,
            "traced " + key + " counts differ from the CLI run");
        checker.check(o.characterize_out.compare(0, counts.report.size(),
                                                 counts.report) == 0,
                      "traced " + key + " report differs from the CLI");
    }
    return pass_s;
}

}  // namespace

RunResult
run_study_workload(const Options &options, Checker &checker)
{
    const std::vector<StudyDef> defs = study_defs(options.workload);
    pp::cli::CommandRegistry registry;
    std::vector<Prepared> studies;
    std::vector<std::size_t> order;

    RunResult result;
    result.setup_s = timed_setup(5, [&] {
        registry = pp::cli::make_default_registry();
        order = permutation(defs.size(), options.seed);
        studies.clear();
        for (const StudyDef &def : defs)
            studies.push_back(prepare(def, options.work_dir));
        fs::remove_all(options.work_dir);
        fs::create_directories(options.work_dir);
        for (const Prepared &s : studies)
            (void)s.spec.build();
        // Warm both command paths on a short study of the same mode,
        // so the first timed pass does not pay one-time set-up.
        for (const char *command : {"characterize", "relief"}) {
            std::vector<std::string> args = {command};
            const std::vector<std::string> flags =
                warm_up_flags(options.workload);
            args.insert(args.end(), flags.begin(), flags.end());
            const CliRun warm = run_cli(registry, args);
            checker.check(warm.rc == 0, std::string("warm-up ") +
                                            command + " exit " +
                                            std::to_string(warm.rc));
        }
    });

    std::vector<Observed> seen(studies.size());
    std::vector<double> pass_s;
    Tracer per_pass;
    Tracer probe;
    double traced_s = 0.0;
    const double deadline = now_s() + options.seconds;
    const bool recording = !options.record.empty();
    do {
        pass_s.push_back(untraced_pass(registry, studies, order,
                                       options.work_dir, pass_s.empty(),
                                       seen, checker));
        // Traced passes alternate with untraced ones, so both see the
        // same machine and the overhead compares like with like.
        if (options.trace)
            traced_s += traced_pass(studies, order, seen, per_pass,
                                    pass_s.size() == 1 ? &probe : nullptr,
                                    checker);
    } while (!recording && (pass_s.size() < 2 || now_s() < deadline));

    std::fprintf(stderr, "pass seconds:");
    for (double s : pass_s)
        std::fprintf(stderr, " %.3f", s);
    std::fprintf(stderr, "\n");
    for (std::size_t i = 0; i < studies.size(); ++i) {
        std::fprintf(stderr,
                     "study %-26s pair p50 %9.2f ms over %zu samples:",
                     studies[i].def.key.c_str(),
                     1e3 * median(seen[i].pair_s), seen[i].pair_s.size());
        for (double s : seen[i].pair_s)
            std::fprintf(stderr, " %.1f", 1e3 * s);
        std::fprintf(stderr, "\n");
    }

    if (!options.trace) {
        std::vector<double> study_p50;
        double events = 0.0;
        double requests = 0.0;
        double saved = 0.0;
        double original = 0.0;
        double overhead = 0.0;
        double span = 0.0;
        for (std::size_t i = 0; i < studies.size(); ++i) {
            const Observed &o = seen[i];
            const pp::api::WorkloadSpec &spec = studies[i].spec;
            study_p50.push_back(median(o.pair_s));
            events += static_cast<double>(o.events);
            requests += spec.mode == pp::runtime::SessionMode::kInfer
                            ? spec.requests
                            : spec.iterations;
            saved += static_cast<double>(o.saved_bytes);
            original += static_cast<double>(o.original_peak);
            overhead += static_cast<double>(o.overhead_ns);
            span += static_cast<double>(o.span_ns);
        }
        const double pass = median(pass_s);
        const std::vector<double> warm(pass_s.begin() + 1, pass_s.end());
        result.values = {
            {"wall_s", pass},
            {"events_per_s", events / pass},
            {"study_p50_ms", 1e3 * geomean(study_p50)},
            {"scenarios_per_s", static_cast<double>(studies.size()) / pass},
            {"sweep_warm_ms", 1e3 * median(warm)},
            {"requests_per_s", requests / pass},
            {"peak_rss_mb", peak_rss_mb()},
            {"relief_saved_frac", saved / original},
            {"relief_overhead_frac", overhead / span},
        };
        return result;
    }

    const double passes = static_cast<double>(pass_s.size());
    double untraced_s = 0.0;
    for (double s : pass_s)
        untraced_s += s;
    const auto ms = [&](const char *name) {
        return layer_ms(per_pass, passes, probe, name);
    };
    const auto n = [&](const char *name) {
        return layer_count(per_pass, passes, probe, name);
    };
    const double engine_events = n("runtime.engine_events");
    const double alloc_ops = n("alloc.ops");
    result.values = {
        {"runtime.plan_build_ms", ms("runtime.plan_build")},
        {"runtime.engine_ms", ms("runtime.engine")},
        {"runtime.engine_ns_per_event",
         engine_events > 0 ? 1e6 * ms("runtime.engine") / engine_events
                           : 0.0},
        {"runtime.inference_ms", ms("runtime.inference")},
        {"runtime.data_parallel_ms", ms("runtime.data_parallel")},
        {"alloc.replay_ns_per_op",
         alloc_ops > 0 ? 1e6 * ms("alloc.replay") / alloc_ops : 0.0},
        {"alloc.ops", alloc_ops},
        {"trace.events", n("trace.events")},
        {"trace.csv_write_ms", ms("trace.csv_write")},
        {"trace.csv_read_ms", ms("trace.csv_read")},
        {"analysis.freeze_ms", ms("analysis.freeze")},
        {"analysis.timeline_ms", ms("analysis.timeline")},
        {"analysis.producers_ms", ms("analysis.producers")},
        {"analysis.pattern_ms", ms("analysis.pattern")},
        {"analysis.ati_ms", ms("analysis.ati")},
        {"analysis.breakdown_ms", ms("analysis.breakdown")},
        {"analysis.report_ms", ms("analysis.report")},
        {"analysis.events_walked", n("analysis.events_walked")},
        {"analysis.index_builds", n("analysis.index_builds")},
        {"swap.plan_ms", ms("swap.plan")},
        {"swap.link_schedule_ms", ms("swap.link_schedule")},
        {"swap.decisions", n("swap.decisions")},
        {"relief.plan_all_ms", ms("relief.plan_all")},
        {"relief.decisions", n("relief.decisions")},
        {"sim.allreduce_ms", ms("sim.allreduce")},
        {"sim.link_transfers", n("sim.link_transfers")},
        {"api.study_run_ms", ms("api.study_run")},
        {"api.facets_ms", ms("api.facets")},
        {"bench.trace_overhead_frac", traced_s / untraced_s - 1.0},
    };
    if (!options.spans.empty()) {
        std::ofstream os(options.spans);
        os << "# spans of " << pass_s.size() << " traced passes\n";
        per_pass.write(os);
        os << "# probe spans, once per run\n";
        probe.write(os);
    }
    return result;
}

}  // namespace perfbench
