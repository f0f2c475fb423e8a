/**
 * @file
 * E16 / extension: activation checkpointing sweep. The recomputation
 * counterpart of the paper's swapping direction: both trade the
 * dominant intermediate term for time — swapping through the PCIe
 * link, checkpointing through extra forward kernels. This bench
 * quantifies the trade and its U-shape in the segment length.
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
    for (int every : {0, 2, 4, 8, 16}) {
        runtime::SessionConfig config;
        config.batch = batch;
        config.iterations = 3;
        config.plan.checkpoint_every = every;
        const auto r = runtime::run_training(model, config);
        const auto b = analysis::occupation_breakdown(r.view());
        std::printf("%-18s %5d %12s %12s %12s\n", label, every,
                    format_bytes(b.peak_total()).c_str(),
                    format_bytes(
                        b.at_peak[static_cast<int>(
                            Category::kIntermediate)])
                        .c_str(),
                    format_time(r.iteration_time).c_str());
    }
}

}  // namespace

int
main()
{
    bench::banner("ext_checkpointing",
                  "extension: activation recomputation sweep",
                  "MobileNetV1 batch 64 and VGG-16 batch 32, "
                  "checkpoint every 0(off)/2/4/8/16 activations");

    std::printf("\n%-18s %5s %12s %12s %12s\n", "model", "every",
                "peak", "interm@peak", "iter time");
    sweep("mobilenet/64", nn::mobilenet_v1(), 64);
    sweep("vgg16/32", nn::vgg16(), 32);

    std::printf("\ntakeaway: like the paper's swap candidates, the "
                "profitable segment length is bounded both ways — "
                "short segments keep too many checkpoints, long "
                "segments resurrect too many activations at once "
                "(U-shaped peak), while iteration time rises "
                "monotonically with recomputation.\n");
    return 0;
}
