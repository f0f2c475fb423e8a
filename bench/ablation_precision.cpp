/**
 * @file
 * E15 / ablation: tensor precision. Re-runs the Fig. 5-style
 * breakdown at f16 instead of f32 — halving activations, gradients,
 * AND parameters — and shows which categories actually shrink the
 * peak (the paper's point that parameter-targeting techniques miss
 * the dominant term applies to precision too unless activations are
 * included).
 */
#include <cstdio>

#include "analysis/breakdown.h"
#include "bench_util.h"
#include "core/dtype.h"
#include "core/format.h"
#include "core/types.h"
#include "nn/models.h"
#include "runtime/session.h"

using namespace pinpoint;

namespace {

void
run_one(const char *label, const nn::Model &model, std::int64_t batch,
        DType dtype)
{
    runtime::SessionConfig config;
    config.batch = batch;
    config.iterations = 3;
    config.plan.dtype = dtype;
    const auto r = runtime::run_training(model, config);
    const auto b = analysis::occupation_breakdown(r.view());
    std::printf(
        "%-22s %5s %12s %12s %12s %12s\n", label, dtype_name(dtype),
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

}  // namespace

int
main()
{
    bench::banner("ablation_precision",
                  "extension: f32 vs f16 training footprint",
                  "ResNet-50 batch 32 and transformer 6L/512d seq "
                  "128 batch 8");

    std::printf("\n%-22s %5s %12s %12s %12s %12s\n", "model", "dtype",
                "peak", "input", "params", "interm");
    run_one("resnet50/32", nn::resnet(50), 32, DType::kF32);
    run_one("resnet50/32", nn::resnet(50), 32, DType::kF16);

    nn::TransformerConfig cfg;
    cfg.layers = 6;
    cfg.d_model = 512;
    cfg.heads = 8;
    cfg.d_ff = 2048;
    cfg.seq_len = 128;
    const nn::Model tfm = nn::transformer_encoder(cfg);
    run_one("transformer6L/8", tfm, 8, DType::kF32);
    run_one("transformer6L/8", tfm, 8, DType::kF16);

    std::printf("\ntakeaway: half precision halves every dense "
                "category at once, which is why mixed precision "
                "moves the peak where pruning/quantizing parameters "
                "alone (the paper's Sec. III observation) cannot.\n");
    return 0;
}
