/**
 * @file
 * E6 / Fig. 6: occupation breakdown of the linear DNN (AlexNet) on
 * CIFAR-100 (32x32) as batch size grows. The paper's observation:
 * with growing batch size the intermediate results gradually
 * dominate, the parameter share shrinks, and the input share rises
 * slightly.
 */
#include <cstdio>

#include "analysis/breakdown.h"
#include "api/study.h"
#include "api/workload.h"
#include "bench_util.h"
#include "core/check.h"
#include "core/format.h"
#include "core/types.h"

using namespace pinpoint;

int
main()
{
    bench::banner("fig6_alexnet_batch",
                  "Fig. 6 (AlexNet / CIFAR-100 breakdown vs batch)",
                  "AlexNet-CIFAR (32x32 inputs, 100 classes), batch "
                  "16..512, 3 iterations each");

    std::printf("\n(a) absolute bytes at peak\n");
    std::printf("%6s %12s %12s %12s %12s\n", "batch", "peak", "input",
                "params", "interm");
    struct Row {
        std::int64_t batch;
        analysis::BreakdownResult b;
    };
    std::vector<Row> rows;
    for (std::int64_t batch : {16, 32, 64, 128, 256, 512}) {
        api::WorkloadSpec spec;
        spec.model = "alexnet-cifar";
        spec.batch = batch;
        spec.iterations = 3;
        const api::Study study = api::Study::run(spec);
        const auto &b = study.breakdown();
        // Migration hygiene, checked at the smallest batch: the
        // cached facet must equal a direct replay.
        if (batch == 16)
            PP_CHECK(analysis::occupation_breakdown(study.view())
                             .peak_total() == b.peak_total(),
                     "Study breakdown facet diverged from direct "
                     "replay");
        // The breakdown never builds the shared Timeline.
        bench::check_timeline_builds(study, 0);
        rows.push_back({batch, b});
        std::printf(
            "%6lld %12s %12s %12s %12s\n",
            static_cast<long long>(batch),
            format_bytes(b.peak_total()).c_str(),
            format_bytes(b.at_peak[static_cast<int>(Category::kInput)])
                .c_str(),
            format_bytes(
                b.at_peak[static_cast<int>(Category::kParameter)])
                .c_str(),
            format_bytes(
                b.at_peak[static_cast<int>(Category::kIntermediate)])
                .c_str());
    }

    std::printf("\n(b) shares of the peak footprint\n");
    std::printf("%6s %10s %10s %10s\n", "batch", "input", "params",
                "interm");
    for (const auto &r : rows) {
        std::printf("%6lld %10s %10s %10s\n",
                    static_cast<long long>(r.batch),
                    format_percent(r.b.fraction(Category::kInput))
                        .c_str(),
                    format_percent(r.b.fraction(Category::kParameter))
                        .c_str(),
                    format_percent(
                        r.b.fraction(Category::kIntermediate))
                        .c_str());
    }

    std::printf("\npaper checkpoints: parameter share falls "
                "monotonically with batch; intermediates dominate at "
                "large batch; input share grows slightly.\n");
    return 0;
}
