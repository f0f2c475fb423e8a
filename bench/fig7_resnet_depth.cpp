/**
 * @file
 * E7 / Fig. 7: occupation breakdown of the non-linear DNN (ResNet)
 * on ImageNet (224x224) across layer structures (ResNet-18/34/50/
 * 101/152) and batch sizes. Cells that exceed the Titan X's 12 GB
 * report OOM — exactly the capacity wall the paper's introduction
 * motivates.
 */
#include <cstdio>

#include "alloc/device_memory.h"
#include "analysis/breakdown.h"
#include "api/study.h"
#include "api/workload.h"
#include "bench_util.h"
#include "core/check.h"
#include "core/format.h"
#include "core/types.h"
#include "nn/models.h"

using namespace pinpoint;

int
main()
{
    bench::banner("fig7_resnet_depth",
                  "Fig. 7 (ResNet / ImageNet breakdown vs depth)",
                  "ResNet-18/34/50/101/152, 224x224 inputs, batch "
                  "16/32/64, 3 iterations each, Titan X 12GB");

    bool hygiene_checked = false;
    std::printf("\n%-10s %6s %12s %10s %10s %10s\n", "model", "batch",
                "peak", "input", "params", "interm");
    for (int depth : {18, 34, 50, 101, 152}) {
        const nn::Model model = nn::resnet(depth);
        for (std::int64_t batch : {16, 32, 64}) {
            api::WorkloadSpec spec;
            spec.model = model.name;
            spec.batch = batch;
            spec.iterations = 3;
            try {
                const api::Study study = api::Study::run(spec);
                const auto &b = study.breakdown();
                // Migration hygiene, once where cheap: the cached
                // facet must equal a direct replay.
                if (!hygiene_checked) {
                    PP_CHECK(
                        analysis::occupation_breakdown(study.view())
                                .at_peak == b.at_peak,
                        "Study breakdown facet diverged from "
                        "direct replay");
                    hygiene_checked = true;
                }
                // The breakdown never builds the shared Timeline.
                bench::check_timeline_builds(study, 0);
                std::printf(
                    "%-10s %6lld %12s %10s %10s %10s\n",
                    model.name.c_str(),
                    static_cast<long long>(batch),
                    format_bytes(b.peak_total()).c_str(),
                    format_percent(b.fraction(Category::kInput))
                        .c_str(),
                    format_percent(b.fraction(Category::kParameter))
                        .c_str(),
                    format_percent(
                        b.fraction(Category::kIntermediate))
                        .c_str());
            } catch (const alloc::DeviceOomError &e) {
                std::printf("%-10s %6lld %12s (requested %s beyond "
                            "device capacity)\n",
                            model.name.c_str(),
                            static_cast<long long>(batch), "OOM",
                            format_bytes(e.requested).c_str());
            }
        }
    }

    std::printf("\npaper checkpoints: deeper ResNets shift the "
                "breakdown further toward intermediates; parameters "
                "stay a minor share at every depth; larger batches "
                "amplify the effect until the 12 GB device OOMs.\n");
    return 0;
}
