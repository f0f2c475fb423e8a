/**
 * @file
 * Serving-latency bench: forward-only inference sessions replaying
 * the deterministic bursty request stream across the dtype axis.
 * For each model x dtype the bench reports the steady-state request
 * latency percentiles (p50/p90/p99/max), the resident peak, and the
 * peak relative to the f32 baseline — the serving-scale counterpart
 * of the paper's training characterization: how the footprint and
 * the per-request tail move when the weights and activations shrink
 * to half or int8 precision.
 *
 * Usage: ./build/serving_latency [requests]
 *        (default 32 requests per session)
 */
#include <cstdio>
#include <cstdlib>

#include "api/study.h"
#include "api/workload.h"
#include "bench_util.h"
#include "core/check.h"
#include "core/dtype.h"
#include "core/format.h"
#include "core/parse.h"
#include "runtime/session.h"

using namespace pinpoint;

int
main(int argc, char **argv)
{
    std::int64_t requests = 32;
    if (argc > 1)
        PP_CHECK(parse_int64(argv[1], requests) && requests >= 1,
                 "usage: serving_latency [requests] — '"
                     << argv[1]
                     << "' is not a positive integer");
    bench::banner("serving_latency",
                  "extension: serving-scale inference sessions",
                  "bursty request stream over the dtype axis "
                  "(f32/f16/i8)");

    std::printf("\n%lld requests per session, bursty arrivals, "
                "steady-state percentiles (request 0 = cold start, "
                "discarded)\n",
                static_cast<long long>(requests));
    std::printf("%-10s %-5s | %10s %10s %10s %10s | %10s %6s\n",
                "model", "dtype", "p50", "p90", "p99", "max", "peak",
                "vs f32");

    int scenarios = 0;
    for (const char *model : {"mlp", "resnet18"}) {
        std::size_t f32_peak = 0;
        for (DType dtype :
             {DType::kF32, DType::kF16, DType::kI8}) {
            api::WorkloadSpec spec;
            spec.model = model;
            spec.batch = 8;
            spec.mode = runtime::SessionMode::kInfer;
            spec.requests = static_cast<int>(requests);
            spec.dtype = dtype;
            const api::Study study = api::Study::run(spec);
            const std::size_t peak = study.peak_occupancy_bytes();
            if (dtype == DType::kF32)
                f32_peak = peak;
            PP_CHECK(f32_peak > 0,
                     "f32 baseline peak is zero for " << model);
            std::printf(
                "%-10s %-5s | %10s %10s %10s %10s | %10s %5.0f%%\n",
                model, dtype_name(dtype),
                format_time(study.latency_p50()).c_str(),
                format_time(study.latency_p90()).c_str(),
                format_time(study.latency_p99()).c_str(),
                format_time(study.latency_max()).c_str(),
                format_bytes(peak).c_str(),
                100.0 * static_cast<double>(peak) /
                    static_cast<double>(f32_peak));
            // Reading the resident peak walks the occupancy index
            // once; the latency percentiles come straight from the
            // replayed stream and must not trigger a second build.
            bench::check_timeline_builds(study, 1);
            ++scenarios;
        }
    }
    // 2 models x 3 dtypes.
    PP_CHECK(scenarios == 6,
             "expected 6 serving scenarios, ran " << scenarios);

    std::printf("\nlatencies are per-request service times over the "
                "steady-state window; narrower dtypes shrink the "
                "resident peak roughly in proportion to element "
                "width while the bursty tail (p99 vs p50) tracks "
                "queueing, not precision.\n");
    return 0;
}
