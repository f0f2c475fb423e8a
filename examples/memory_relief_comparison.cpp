/**
 * @file
 * Capstone example: compare every memory-pressure-relief lever the
 * library models on one workload — the question the paper's
 * characterization exists to answer. For MobileNetV1 at batch 64 on
 * the 12 GB Titan X:
 *
 *   1. baseline             (nothing)
 *   2. gradient accumulation (micro-batches = 4)
 *   3. activation checkpointing (every 8, full replay)
 *   4. half precision        (f16)
 *   5. swapping              (relief planner, swap-only)
 *   6. recomputation         (relief planner, recompute-only)
 *   7. hybrid                (relief planner, best per tensor)
 *
 * Rows 5-7 come from the unified relief::StrategyPlanner run on the
 * *baseline* trace: the recompute costs are the producing layers'
 * measured forward times from that trace (not a hand-rolled
 * estimate), and the swap legs are scheduled on the shared PCIe
 * link, so the three strategies are directly comparable under one
 * cost model.
 *
 * Build & run:  ./build/example_memory_relief_comparison
 */
#include <cstdio>

#include "analysis/breakdown.h"
#include "api/study.h"
#include "api/workload.h"
#include "core/dtype.h"
#include "core/format.h"
#include "core/types.h"
#include "nn/models.h"
#include "relief/strategy_planner.h"
#include "runtime/session.h"

using namespace pinpoint;

namespace {

struct Row {
    const char *label;
    std::size_t peak;
    TimeNs iter_time;
    std::string note;
};

Row
run_config(const char *label, runtime::SessionConfig config,
           const std::string &note)
{
    const auto r =
        runtime::run_training(nn::mobilenet_v1(), config);
    const auto b = analysis::occupation_breakdown(r.view());
    return {label, b.peak_total(), r.iteration_time, note};
}

}  // namespace

int
main()
{
    runtime::SessionConfig base;
    base.batch = 64;
    base.iterations = 3;

    std::vector<Row> rows;
    rows.push_back(run_config("baseline", base, "-"));

    {
        auto c = base;
        c.plan.micro_batches = 4;
        rows.push_back(run_config("grad accumulation x4", c,
                                  "4x kernel launches"));
    }
    {
        auto c = base;
        c.plan.checkpoint_every = 8;
        rows.push_back(run_config("checkpointing /8 (replay)", c,
                                  "forward recompute"));
    }
    {
        auto c = base;
        c.plan.dtype = DType::kF16;
        rows.push_back(
            run_config("half precision", c, "numeric range"));
    }
    {
        // The unified planner through the run artifact: one
        // baseline Study, three strategies under one overhead
        // budget (at most one extra iteration's worth of
        // stall/recompute). The budget depends on the *measured*
        // iteration time, so the session runs first and the Study
        // wraps it with the options attached. Each row reports the
        // scheduled new peak — swap legs timed on the shared link —
        // and the measured overhead: link stall plus the producers'
        // measured forward times.
        api::WorkloadSpec spec;
        spec.model = "mobilenet";
        spec.batch = base.batch;
        spec.iterations = base.iterations;
        auto session = runtime::run_training(nn::mobilenet_v1(), base);
        api::StudyOptions opts;
        opts.relief.overhead_budget = session.iteration_time;
        const api::Study study(spec, std::move(session), opts);
        // One label per relief::Strategy enumerator, in enum
        // order. Unavailable reports (peer offload on this
        // single-device study) are skipped, not printed as a
        // zero-savings row.
        const char *kLabels[relief::kNumStrategies] = {
            "swap plan /iter budget",
            "recompute plan /iter budget",
            "peer offload /iter budget",
            "hybrid plan /iter budget",
        };
        const auto &reports = study.relief_all();
        for (std::size_t i = 0; i < reports.size(); ++i) {
            const auto &rep = reports[i];
            if (!rep.available)
                continue;
            const auto swapped =
                relief::totals_of(rep, relief::Mechanism::kSwap);
            const auto recomputed =
                relief::totals_of(rep, relief::Mechanism::kRecompute);
            char note[96];
            std::snprintf(note, sizeof(note),
                          "%s moved, %s recomputed, +%s",
                          format_bytes(swapped.bytes).c_str(),
                          format_bytes(recomputed.bytes).c_str(),
                          format_time(rep.measured_overhead).c_str());
            rows.push_back({kLabels[i], rep.new_peak_bytes,
                            study.result().iteration_time, note});
        }
    }

    std::printf("memory-pressure relief on mobilenet_v1, batch 64, "
                "Titan X 12GB\n\n");
    std::printf("%-26s %12s %10s %12s  %s\n", "lever", "peak",
                "vs base", "iter time", "currency");
    const double base_peak = static_cast<double>(rows[0].peak);
    for (const auto &row : rows) {
        std::printf("%-26s %12s %9.0f%% %12s  %s\n", row.label,
                    format_bytes(row.peak).c_str(),
                    100.0 * static_cast<double>(row.peak) / base_peak,
                    format_time(row.iter_time).c_str(),
                    row.note.c_str());
    }
    std::printf("\nall levers attack the intermediate term the paper "
                "pinpoints as dominant. swapping is free per "
                "decision when the trace has Eq. 1-sized gaps, but "
                "the scheduled rows show the dedicated-link fallacy: "
                "hundreds of 'free' swaps contending for one PCIe "
                "link stall far past the predicted budget, while "
                "recomputation pays only the producers' measured "
                "forward times and never touches the link. the "
                "hybrid planner's predicted peak reduction is never "
                "worse than either pure strategy at the same "
                "budget.\n");
    return 0;
}
