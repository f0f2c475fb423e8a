/**
 * @file
 * Data-parallel scaling bench: one workload replicated over 1, 2, 4,
 * and 8 devices on both interconnect presets. Reports the per-device
 * compute iteration, the exposed ring all-reduce (with its
 * dedicated-ring ideal), the effective iteration, the mean peer-link
 * occupancy, and the resulting scaling efficiency — the
 * production-scale counterpart of the paper's single-GPU
 * characterization: how much of each iteration the gradient
 * synchronization eats as the ring grows.
 *
 * Usage: ./build/dp_allreduce [model] [batch]
 *        (default resnet18, batch 16)
 */
#include <cstdio>
#include <cstdlib>

#include "api/study.h"
#include "api/workload.h"
#include "bench_util.h"
#include "core/check.h"
#include "core/format.h"
#include "core/parse.h"
#include "core/types.h"
#include "sim/topology.h"

using namespace pinpoint;

int
main(int argc, char **argv)
{
    const char *model = argc > 1 ? argv[1] : "resnet18";
    std::int64_t batch = 16;
    if (argc > 2)
        PP_CHECK(parse_int64(argv[2], batch),
                 "usage: dp_allreduce [model] [batch] — '"
                     << argv[2] << "' is not an integer");
    bench::banner("dp_allreduce",
                  "extension: data-parallel scaling efficiency",
                  "N-device ring all-reduce on both interconnect "
                  "presets");

    std::printf("\n%s, batch %lld, gradient all-reduce per "
                "iteration\n",
                model, static_cast<long long>(batch));
    std::printf("%-8s %3s | %10s %10s %10s | %10s %6s %6s\n",
                "topology", "N", "compute", "allreduce", "ideal",
                "iteration", "busy", "eff");

    int scenarios = 0;
    for (const std::string &topology : sim::interconnect_names()) {
        for (int devices : {1, 2, 4, 8}) {
            api::WorkloadSpec spec;
            spec.model = model;
            spec.batch = batch;
            spec.iterations = 3;
            spec.devices = devices;
            spec.topology = topology;
            const api::Study study = api::Study::run(spec);
            const TimeNs compute =
                study.result().iteration_time;
            const TimeNs allreduce = study.allreduce_time();
            const TimeNs ideal =
                allreduce - study.allreduce_stall();
            std::printf(
                "%-8s %3d | %10s %10s %10s | %10s %5.1f%% %6.3f\n",
                topology.c_str(), devices,
                format_time(compute).c_str(),
                format_time(allreduce).c_str(),
                format_time(ideal).c_str(),
                format_time(compute + allreduce).c_str(),
                study.interconnect_busy_fraction() * 100.0,
                study.scaling_efficiency());
            // The DP metrics never touch the trace index: reading
            // them must not build the shared timeline.
            bench::check_timeline_builds(study, 0);
            ++scenarios;
        }
    }
    // Both interconnect presets x {1, 2, 4, 8} devices.
    PP_CHECK(scenarios == 8,
             "expected 8 data-parallel scenarios, ran " << scenarios);

    std::printf("\nefficiency = compute / (compute + exposed "
                "all-reduce); the ring pays 2*(N-1) chunk steps, so "
                "efficiency falls as the ring grows and rises with "
                "interconnect bandwidth.\n");
    return 0;
}
