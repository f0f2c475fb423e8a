/**
 * @file
 * Entry point of the pinpoint benchmark driver.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --work-dir DIR --reference FILE [--spans FILE]
 *             [--record FILE]
 *
 * Prints, as the last stdout line, one JSON object with "correct",
 * "attempted", "failed" and "metrics": the end-to-end metrics with
 * --trace 0, the per-layer metrics with --trace 1. Exits 0 when every
 * output check passed, 1 when one failed, 2 on bad usage.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.h"

namespace {

using perfbench::Options;

/** A metric name with its unit, in output order. */
struct MetricSpec {
    const char *name;
    const char *unit;
};

/** The end-to-end metrics (--trace 0). */
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"events_per_s", "1/s"},
    {"study_p50_ms", "ms"},
    {"scenarios_per_s", "1/s"},
    {"sweep_warm_ms", "ms"},
    {"requests_per_s", "1/s"},
    {"peak_rss_mb", "MiB"},
    {"ok_ratio", "ratio"},
    {"relief_saved_frac", "ratio"},
    {"relief_overhead_frac", "ratio"},
};

/**
 * The per-layer metrics (--trace 1). A layer a workload does not
 * reach reads 0 there (see README.md for which workload moves which).
 */
const std::vector<MetricSpec> kPerLayer = {
    {"runtime.plan_build_ms", "ms"},
    {"runtime.engine_ms", "ms"},
    {"runtime.engine_ns_per_event", "ns"},
    {"runtime.inference_ms", "ms"},
    {"runtime.data_parallel_ms", "ms"},
    {"alloc.replay_ns_per_op", "ns"},
    {"alloc.ops", "count"},
    {"trace.events", "count"},
    {"trace.csv_write_ms", "ms"},
    {"trace.csv_read_ms", "ms"},
    {"analysis.freeze_ms", "ms"},
    {"analysis.timeline_ms", "ms"},
    {"analysis.producers_ms", "ms"},
    {"analysis.pattern_ms", "ms"},
    {"analysis.ati_ms", "ms"},
    {"analysis.breakdown_ms", "ms"},
    {"analysis.report_ms", "ms"},
    {"analysis.events_walked", "count"},
    {"analysis.index_builds", "count"},
    {"swap.plan_ms", "ms"},
    {"swap.link_schedule_ms", "ms"},
    {"swap.decisions", "count"},
    {"relief.plan_all_ms", "ms"},
    {"relief.decisions", "count"},
    {"sim.allreduce_ms", "ms"},
    {"sim.link_transfers", "count"},
    {"api.study_run_ms", "ms"},
    {"api.facets_ms", "ms"},
    {"sweep.cold_ms", "ms"},
    {"sweep.warm_ms", "ms"},
    {"sweep.serial_scenario_ms", "ms"},
    {"sweep.pool_busy_frac", "ratio"},
    {"sweep.tail_ms", "ms"},
    {"sweep.tail_ms.grid_order", "ms"},
    {"sweep.pool_busy_frac.grid_order", "ratio"},
    {"sweep.cache_store_us", "us"},
    {"sweep.cache_load_us", "us"},
    {"sweep.codec_us", "us"},
    {"sweep.export_ms", "ms"},
    {"sweep.cache_hit_ratio", "ratio"},
    {"bench.trace_overhead_frac", "ratio"},
};

int
usage(const char *message)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "train-deep|zoo-sweep|serve-stream --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR --reference FILE "
                 "[--spans FILE] [--record FILE]\n",
                 message);
    return 2;
}

/** Parses argv into @p o. @return false on bad usage. */
bool
parse(int argc, char **argv, Options &o)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        char *end = nullptr;
        if (flag == "--workload") {
            o.workload = value;
        } else if (flag == "--seed") {
            o.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0')
                return false;
        } else if (flag == "--seconds") {
            o.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !(o.seconds > 0.0))
                return false;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                return false;
            o.trace = value == "1";
        } else if (flag == "--work-dir") {
            o.work_dir = value;
        } else if (flag == "--reference") {
            o.reference = value;
        } else if (flag == "--spans") {
            o.spans = value;
        } else if (flag == "--record") {
            o.record = value;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 &&
           (o.workload == "train-deep" || o.workload == "zoo-sweep" ||
            o.workload == "serve-stream") &&
           !o.work_dir.empty() && !o.reference.empty();
}

/** Removes the run's scratch directory however the run ends. */
struct WorkDirGuard {
    std::string dir;
    ~WorkDirGuard()
    {
        std::error_code ignored;
        std::filesystem::remove_all(dir, ignored);
    }
};

}  // namespace

int
main(int argc, char **argv)
{
    Options options;
    if (!parse(argc, argv, options))
        return usage("bad arguments");
    const WorkDirGuard guard{options.work_dir};

    perfbench::Reference reference(options.reference);
    perfbench::Checker checker(reference, !options.record.empty());
    perfbench::RunResult result;
    try {
        result = options.workload == "zoo-sweep"
                     ? perfbench::run_zoo_sweep(options, checker)
                     : perfbench::run_study_workload(options, checker);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: run failed: %s\n", e.what());
        return 1;
    }

    for (const std::string &problem : checker.problems())
        std::fprintf(stderr, "perfbench: check failed: %s\n",
                     problem.c_str());
    if (!options.record.empty()) {
        if (checker.failed() > 0 || !reference.save(options.record))
            return 1;
        std::fprintf(stderr, "perfbench: recorded %s reference in %s\n",
                     options.workload.c_str(), options.record.c_str());
        return 0;
    }

    result.values["setup_s"] = result.setup_s;
    const int attempted = checker.attempted();
    result.values["ok_ratio"] =
        attempted > 0
            ? static_cast<double>(attempted - checker.failed()) / attempted
            : 0.0;
    bool correct = checker.failed() == 0 && attempted > 0;
    std::string metrics;
    for (const MetricSpec &m : options.trace ? kPerLayer : kEndToEnd) {
        const auto it = result.values.find(m.name);
        double value = it == result.values.end() ? 0.0 : it->second;
        // Every end-to-end metric must be measured; a layer the
        // workload never reaches reads 0.
        if ((!options.trace && it == result.values.end()) ||
            !std::isfinite(value)) {
            std::fprintf(stderr, "perfbench: metric %s not measured\n",
                         m.name);
            correct = false;
            value = 0.0;
        }
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      metrics.empty() ? "" : ", ", m.name, value, m.unit);
        metrics += buf;
    }
    std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false", attempted, checker.failed(),
                metrics.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
