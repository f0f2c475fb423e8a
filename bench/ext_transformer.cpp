/**
 * @file
 * E14 / extension: transformer training memory characterization. The
 * paper's intro motivates the capacity problem with GPT-scale models;
 * this bench applies the same breakdown methodology to a BERT-style
 * encoder and exposes the seq^2 attention-probability term.
 */
#include <cstdio>

#include "analysis/breakdown.h"
#include "bench_util.h"
#include "core/check.h"
#include "core/format.h"
#include "core/types.h"
#include "nn/models.h"
#include "runtime/session.h"

using namespace pinpoint;

int
main()
{
    bench::banner("ext_transformer",
                  "extension: transformer memory breakdown",
                  "6-layer, d=512 encoder, batch 8, sequence length "
                  "64..512, Titan X Pascal");

    std::printf("\n%6s %12s %10s %10s %10s %14s\n", "seq", "peak",
                "input", "params", "interm", "attn probs");
    for (std::int64_t seq : {64, 128, 256, 512}) {
        nn::TransformerConfig cfg;
        cfg.layers = 6;
        cfg.d_model = 512;
        cfg.heads = 8;
        cfg.d_ff = 2048;
        cfg.seq_len = seq;
        cfg.vocab = 30522;
        const nn::Model model = nn::transformer_encoder(cfg);

        runtime::SessionConfig config;
        config.batch = 8;
        config.iterations = 2;
        try {
            const auto r = runtime::run_training(model, config);
            const auto b = analysis::occupation_breakdown(r.view());
            // Bytes of one layer's attention probabilities.
            const std::size_t probs =
                static_cast<std::size_t>(8 * cfg.heads * seq * seq) *
                4;
            std::printf(
                "%6lld %12s %10s %10s %10s %14s\n",
                static_cast<long long>(seq),
                format_bytes(b.peak_total()).c_str(),
                format_percent(b.fraction(Category::kInput)).c_str(),
                format_percent(b.fraction(Category::kParameter))
                    .c_str(),
                format_percent(b.fraction(Category::kIntermediate))
                    .c_str(),
                format_bytes(probs).c_str());
        } catch (const Error &) {
            std::printf("%6lld %12s\n", static_cast<long long>(seq),
                        "OOM");
        }
    }

    std::printf("\ntakeaway: the paper's CNN-era conclusion carries "
                "over — parameters shrink to a sliver while the "
                "quadratic attention intermediates take over the "
                "footprint as sequence length grows.\n");
    return 0;
}
