/**
 * @file
 * Swap advisor: the paper's future-work tool as a user workflow.
 * Run a workload into an api::Study with Eq. 1 planner options, and
 * read the swap facets: the plan, its predicted savings, and — from
 * the execution facet, which runs that same plan on the shared PCIe
 * link — the measured numbers that expose the dedicated-link
 * fallacy, all computed once and cached.
 *
 * Build & run:  ./build/example_swap_advisor
 */
#include <cstdio>

#include "api/study.h"
#include "api/workload.h"
#include "core/format.h"
#include "core/types.h"
#include "swap/planner.h"

using namespace pinpoint;

int
main()
{
    // 1. Characterize: ResNet-50 at batch 16 on the Titan X, with
    //    hideable-only swaps at a 25% safety margin.
    api::WorkloadSpec spec;
    spec.model = "resnet50";
    spec.batch = 16;
    spec.iterations = 3;
    api::StudyOptions opts;
    opts.swap.safety_factor = 1.25;
    opts.swap.min_block_bytes = 8 * 1024 * 1024;
    const api::Study study = api::Study::run(spec, opts);
    std::printf("characterized %s batch %lld: peak %s on a %s "
                "device\n\n",
                spec.model.c_str(),
                static_cast<long long>(spec.batch),
                format_bytes(study.result().usage.peak_total).c_str(),
                format_bytes(study.device().dram_bytes).c_str());

    // 2. The swap facets: the plan and its shared-link execution.
    const auto &plan = study.swap_plan();
    const auto &exec = study.swap_execution();
    const TimeNs predicted = swap::totals_of(plan).overhead;
    const std::size_t original_peak = study.peak_occupancy_bytes();
    const TimeNs unpredicted = exec.measured_stall > predicted
                                   ? exec.measured_stall - predicted
                                   : 0;

    std::printf("planner found %zu hideable swap windows\n",
                plan.decisions.size());
    std::printf("peak footprint:    %s\n",
                format_bytes(original_peak).c_str());
    std::printf("peak reduction:    %s (%.1f%%)\n",
                format_bytes(plan.peak_reduction_bytes).c_str(),
                100.0 * static_cast<double>(plan.peak_reduction_bytes) /
                    static_cast<double>(original_peak));
    std::printf("predicted stall:   %s\n",
                format_time(predicted).c_str());
    std::printf("measured stall:    %s on the shared link "
                "(+%s unpredicted)\n\n",
                format_time(exec.measured_stall).c_str(),
                format_time(unpredicted).c_str());

    // 3. Inspect the top schedule entries.
    std::printf("%-6s %10s %14s %14s %10s\n", "block", "size",
                "swap out at", "back in by", "headroom");
    int rows = 0;
    for (const auto &d : plan.decisions) {
        if (rows++ >= 12) {
            std::printf("... (%zu more)\n",
                        plan.decisions.size() - 12);
            break;
        }
        std::printf("%-6llu %10s %14s %14s %9.1fx\n",
                    static_cast<unsigned long long>(d.block),
                    format_bytes(d.size).c_str(),
                    format_time(d.gap_start).c_str(),
                    format_time(d.gap_end).c_str(), d.hide_ratio);
    }
    return 0;
}
