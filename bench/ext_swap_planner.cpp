/**
 * @file
 * E8 / Sec. IV future work: the automatic swap planner. Sifts the
 * recorded memory behaviors through the Eq. 1 cost model and emits a
 * swap schedule, reporting how much of the peak footprint can be
 * moved off-device for free (hideable swaps) and what overhead
 * aggressive swapping would add.
 */
#include <cstdio>

#include "analysis/swap_model.h"
#include "analysis/timeline.h"
#include "analysis/trace_view.h"
#include "bench_util.h"
#include "core/format.h"
#include "nn/models.h"
#include "runtime/session.h"
#include "swap/planner.h"

using namespace pinpoint;

namespace {

/** Plans swapping for @p view's trace with @p opts; prints one row. */
void
report(const char *title, const analysis::TraceView &view,
       const swap::PlannerOptions &opts)
{
    const swap::SwapPlanReport r = swap::SwapPlanner(opts).plan(view);
    const swap::PlanTotals totals = swap::totals_of(r);
    std::printf("%-34s %9zu %14s %14s %14s %12s\n", title,
                r.decisions.size(), format_bytes(totals.bytes).c_str(),
                format_bytes(view.timeline().peak_bytes()).c_str(),
                format_bytes(r.peak_reduction_bytes).c_str(),
                format_time(totals.overhead).c_str());
}

}  // namespace

int
main()
{
    bench::banner("ext_swap_planner",
                  "Sec. IV future work (automatic sifting cost model)",
                  "MLP with 1.2 GB staged dataset; ResNet-18 batch 32");

    const analysis::LinkBandwidth link{6.4e9, 6.3e9};
    std::printf("\n%-34s %9s %14s %14s %14s %12s\n", "workload",
                "decisions", "moved", "orig peak", "peak saved",
                "overhead");

    {
        runtime::SessionConfig config;
        config.batch = 64;
        config.engine.staging_buffer_bytes = 1200ull * 1024 * 1024;
        config.engine.iterations_per_epoch = 2500;
        config.iterations = 5001;
        const auto result = runtime::run_training(nn::mlp(), config);

        swap::PlannerOptions opts;
        opts.link = link;
        report("mlp+staging (hideable only)", result.view(), opts);

        opts.safety_factor = 2.0;
        report("mlp+staging (safety 2.0)", result.view(), opts);

        opts.safety_factor = 1.0;
        opts.allow_overhead = true;
        opts.min_block_bytes = 16 * 1024 * 1024;
        report("mlp+staging (aggressive >=16MB)", result.view(), opts);
    }

    {
        runtime::SessionConfig config;
        config.batch = 32;
        config.iterations = 3;
        const auto result =
            runtime::run_training(nn::resnet(18), config);

        swap::PlannerOptions opts;
        opts.link = link;
        report("resnet18 (hideable only)", result.view(), opts);

        opts.allow_overhead = true;
        opts.min_block_bytes = 64 * 1024 * 1024;
        report("resnet18 (aggressive >=64MB)", result.view(), opts);
    }

    std::printf("\ntakeaway (matches the paper): kernel-scale ATIs "
                "hide only ~80KB (Eq. 1), so the bulk of behaviors "
                "is unswappable; the planner automatically finds the "
                "two profitable classes — the staged-dataset outlier "
                "(epoch-scale ATI) and forward activations re-read "
                "tens of ms later in backward — and prices "
                "everything else as stall overhead.\n");
    return 0;
}
