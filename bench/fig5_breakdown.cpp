/**
 * @file
 * E5 / Fig. 5: device memory occupation breakdown (input data /
 * parameters / intermediate results) at peak for typical DNNs. The
 * paper's observation: parameters are a small fraction for most
 * DNNs; intermediate results are the primary contributor.
 */
#include <cstdio>
#include <vector>

#include "analysis/breakdown.h"
#include "api/study.h"
#include "api/workload.h"
#include "bench_util.h"
#include "core/check.h"
#include "core/format.h"
#include "core/types.h"
#include "nn/model_registry.h"
#include "nn/models.h"

using namespace pinpoint;

int
main()
{
    bench::banner("fig5_breakdown",
                  "Fig. 5 (occupation breakdown of typical DNNs)",
                  "batch 32 (64 for the MLP), 3 iterations each, "
                  "Titan X Pascal 12GB");

    struct Workload {
        const char *model;
        std::int64_t batch;
    };
    const std::vector<Workload> workloads = {
        {"mlp", 64},       {"alexnet-cifar", 32},
        {"alexnet", 32},   {"vgg16", 32},
        {"resnet18", 32},  {"resnet50", 32},
        {"inception", 32}, {"mobilenet", 32},
        {"squeezenet", 32},
    };

    bool hygiene_checked = false;
    std::printf("\n%-16s %6s %12s | %18s %18s %18s\n", "model", "batch",
                "peak", "input", "parameters", "intermediates");
    for (const auto &w : workloads) {
        const nn::Model model = nn::build_model(w.model);
        api::WorkloadSpec spec;
        spec.model = w.model;
        spec.batch = w.batch;
        spec.iterations = 3;
        try {
            const api::Study study = api::Study::run(spec);
            const auto &b = study.breakdown();
            // Migration hygiene, checked once where cheap: the
            // cached facet must equal a direct replay.
            if (!hygiene_checked) {
                const auto direct = analysis::occupation_breakdown(
                    study.view());
                PP_CHECK(direct.peak_total() == b.peak_total() &&
                             direct.at_peak == b.at_peak,
                         "Study breakdown facet diverged from "
                         "direct replay");
                hygiene_checked = true;
            }
            // The breakdown walks the frozen columns and never
            // builds the shared Timeline.
            bench::check_timeline_builds(study, 0);
            auto cell = [&](Category c) {
                static char buf[64];
                std::snprintf(
                    buf, sizeof(buf), "%10s %6s",
                    format_bytes(
                        b.at_peak[static_cast<int>(c)])
                        .c_str(),
                    format_percent(b.fraction(c)).c_str());
                return std::string(buf);
            };
            std::printf("%-16s %6lld %12s | %18s %18s %18s\n",
                        model.name.c_str(),
                        static_cast<long long>(w.batch),
                        format_bytes(b.peak_total()).c_str(),
                        cell(Category::kInput).c_str(),
                        cell(Category::kParameter).c_str(),
                        cell(Category::kIntermediate).c_str());
        } catch (const Error &e) {
            std::printf("%-16s %6lld %12s | %s\n", model.name.c_str(),
                        static_cast<long long>(w.batch), "OOM",
                        e.what());
        }
    }

    std::printf("\npaper checkpoints: parameters are a small slice "
                "for most DNNs (so pruning/quantization alone cannot "
                "fix training memory); intermediates dominate.\n");
    return 0;
}
