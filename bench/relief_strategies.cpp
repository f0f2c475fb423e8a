/**
 * @file
 * Extension bench: the unified relief planner across the zoo. For
 * each model, plan swap-only, recompute-only, and hybrid relief on
 * the same trace and report predicted peak reduction next to the
 * *scheduled* overhead (swap legs contending on the shared PCIe
 * link, recompute legs priced at the producers' measured forward
 * times). Quantifies where each mechanism wins — long-gap CNN
 * activations swap for free, short-gap or bandwidth-starved tensors
 * recompute cheaper — and that hybrid never loses to any available
 * pure strategy. (The studies here are single-device, so the
 * peer-offload report is planned but unavailable and stays out of
 * the table.)
 *
 * Usage: ./build/relief_strategies [batch]   (default 16)
 */
#include <cstdio>
#include <cstdlib>

#include "analysis/swap_model.h"
#include "api/study.h"
#include "api/workload.h"
#include "bench_util.h"
#include "core/check.h"
#include "core/format.h"
#include "core/parse.h"
#include "core/types.h"
#include "nn/model_registry.h"
#include "relief/strategy_planner.h"

using namespace pinpoint;

int
main(int argc, char **argv)
{
    std::int64_t batch = 16;
    if (argc > 1)
        PP_CHECK(parse_int64(argv[1], batch),
                 "usage: relief_strategies [batch] — '"
                     << argv[1] << "' is not an integer");
    bench::banner("relief_strategies",
                  "extension: unified swap/recompute/hybrid planning",
                  "model zoo, shared-link swap legs vs measured "
                  "forward-time recompute");

    std::printf("\nbatch %lld\n", static_cast<long long>(batch));
    std::printf("%-18s %10s | %21s | %21s | %21s\n", "", "",
                "swap-only", "recompute-only", "hybrid");
    std::printf("%-18s %10s | %9s %11s | %9s %11s | %9s %11s\n",
                "model", "peak", "save", "overhead", "save",
                "overhead", "save", "overhead");

    bool hygiene_checked = false;
    for (const auto &entry : nn::model_registry()) {
        if (!entry.in_default_zoo)
            continue;
        api::WorkloadSpec spec;
        spec.model = entry.name;
        spec.batch = batch;
        spec.iterations = 3;
        const api::Study study = api::Study::run(spec);

        std::size_t save[relief::kNumStrategies];
        TimeNs overhead[relief::kNumStrategies];
        const auto &reports = study.relief_all();
        // The PR 5 invariant, enforced per scenario: planning all
        // three strategies and scheduling their swap legs costs
        // exactly ONE timeline construction on the shared view.
        // Before TraceView the same path built it four times
        // (plan_all context + one per-strategy execute_plan).
        bench::check_timeline_builds(study, 1);
        // Migration hygiene, checked on the first (cheapest) model:
        // the cached relief facet must equal a direct plan_all on
        // the same trace and options.
        if (!hygiene_checked) {
            relief::StrategyOptions opts;
            opts.link = analysis::LinkBandwidth{
                study.device().d2h_bw_bps,
                study.device().h2d_bw_bps};
            const auto direct = relief::StrategyPlanner(opts)
                                    .plan_all(study.view());
            for (int i = 0; i < relief::kNumStrategies; ++i)
                PP_CHECK(
                    relief::totals_of(direct[i]).covered_bytes ==
                            relief::totals_of(reports[i])
                                .covered_bytes &&
                        direct[i].measured_overhead ==
                            reports[i].measured_overhead,
                    "Study relief facet diverged from direct "
                    "planning");
            hygiene_checked = true;
        }
        // Index by Strategy enumerator, never by position: PR 6
        // inserted kPeerOnly before kHybrid, so a positional read
        // of "slot 2" silently becomes the (unavailable here)
        // peer-only report.
        for (int i = 0; i < relief::kNumStrategies; ++i) {
            save[i] = relief::totals_of(reports[i]).covered_bytes;
            overhead[i] = reports[i].measured_overhead;
        }
        const auto at = [](relief::Strategy s) {
            return static_cast<std::size_t>(s);
        };
        const std::size_t swap_i = at(relief::Strategy::kSwapOnly);
        const std::size_t rec_i =
            at(relief::Strategy::kRecomputeOnly);
        const std::size_t hyb_i = at(relief::Strategy::kHybrid);
        std::printf(
            "%-18s %10s | %9s %11s | %9s %11s | %9s %11s\n",
            entry.name.c_str(),
            format_bytes(study.peak_occupancy_bytes()).c_str(),
            format_bytes(save[swap_i]).c_str(),
            format_time(overhead[swap_i]).c_str(),
            format_bytes(save[rec_i]).c_str(),
            format_time(overhead[rec_i]).c_str(),
            format_bytes(save[hyb_i]).c_str(),
            format_time(overhead[hyb_i]).c_str());
        for (int i = 0; i < relief::kNumStrategies; ++i) {
            if (!reports[i].available ||
                i == static_cast<int>(hyb_i))
                continue;
            if (save[static_cast<std::size_t>(hyb_i)] <
                save[static_cast<std::size_t>(i)]) {
                std::printf("HYBRID DOMINANCE VIOLATED on %s\n",
                            entry.name.c_str());
                return 1;
            }
        }
    }

    std::printf("\ntakeaway: recompute-only reaches nearly the same "
                "peak relief as swap-only at a fraction of the "
                "overhead whenever the link is the bottleneck, and "
                "the hybrid planner's per-tensor choice matches or "
                "beats both everywhere (enforced above).\n");
    return 0;
}
