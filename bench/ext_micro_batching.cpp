/**
 * @file
 * E13 / extension: gradient accumulation as memory-pressure relief.
 * The paper's breakdown shows intermediates dominating and growing
 * with batch; micro-batching attacks exactly that term. This bench
 * sweeps the accumulation factor and reports the peak-vs-time trade.
 */
#include <cstdio>

#include "analysis/breakdown.h"
#include "bench_util.h"
#include "core/format.h"
#include "core/types.h"
#include "nn/models.h"
#include "runtime/session.h"

using namespace pinpoint;

namespace {

void
sweep(const char *label, const nn::Model &model, std::int64_t batch)
{
    for (int k : {1, 2, 4, 8}) {
        runtime::SessionConfig config;
        config.batch = batch;
        config.iterations = 3;
        config.plan.micro_batches = k;
        const auto r = runtime::run_training(model, config);
        const auto b = analysis::occupation_breakdown(r.view());
        std::printf(
            "%-18s %4d %12s %12s %12s\n", label, k,
            format_bytes(b.peak_total()).c_str(),
            format_bytes(
                b.at_peak[static_cast<int>(Category::kIntermediate)])
                .c_str(),
            format_time(r.iteration_time).c_str());
    }
}

}  // namespace

int
main()
{
    bench::banner("ext_micro_batching",
                  "extension: gradient accumulation sweep",
                  "AlexNet-CIFAR batch 256 and ResNet-50 batch 32, "
                  "micro-batches 1/2/4/8");

    std::printf("\n%-18s %4s %12s %12s %12s\n", "model", "k", "peak",
                "interm@peak", "iter time");
    sweep("alexnet-cifar/256", nn::alexnet_cifar(), 256);
    sweep("resnet50/32", nn::resnet(50), 32);

    std::printf("\ntakeaway: accumulation shrinks the intermediate "
                "term the paper identifies as dominant, at a "
                "measured launch-overhead cost — the same trade "
                "swapping makes via PCIe, but without the link.\n");
    return 0;
}
