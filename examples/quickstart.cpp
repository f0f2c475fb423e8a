/**
 * @file
 * Quickstart: profile the memory behaviors of MLP training on the
 * simulated Titan X Pascal, then print the headline analyses of the
 * paper — the Gantt chart, the ATI distribution, and the occupation
 * breakdown — all read from one api::Study, the library's run
 * artifact. Every analysis is a lazy facet: computed on first
 * access, cached for every later consumer.
 *
 * Build & run:  ./build/example_quickstart
 */
#include <cstdio>

#include "analysis/gantt.h"
#include "api/study.h"
#include "api/workload.h"
#include "core/format.h"
#include "core/types.h"

int
main()
{
    using namespace pinpoint;

    // 1. Describe the workload (paper Sec. II: trivial MLP) with
    //    the canonical spec and run it into a Study.
    api::WorkloadSpec spec;
    spec.model = "mlp";
    spec.batch = 64;
    spec.iterations = 5;
    const api::Study study = api::Study::run(spec);
    std::printf("workload: %s\n", spec.to_string().c_str());
    std::printf("recorded %zu memory behaviors, iteration time %s\n\n",
                study.trace().size(),
                format_time(study.result().iteration_time).c_str());

    // 2. Fig. 2: Gantt chart of block lifetimes (timeline facet).
    std::printf("--- Gantt (Fig. 2) ---\n%s\n",
                analysis::render_gantt(study.timeline(), 24).c_str());

    // 3. Fig. 3: ATI distribution (ati facets).
    const auto &summary = study.ati_summary();
    std::printf("--- ATI distribution (Fig. 3) ---\n");
    std::printf("count=%zu median=%.1fus p90=%.1fus max=%.1fus\n\n",
                summary.count, summary.median, summary.p90,
                summary.max);

    // 4. Figs. 5-7: occupation breakdown at peak (breakdown facet).
    const auto &breakdown = study.breakdown();
    std::printf("--- Occupation breakdown at peak (%s total) ---\n",
                format_bytes(breakdown.peak_total()).c_str());
    for (int c = 0; c < kNumCategories; ++c) {
        const auto cat = static_cast<Category>(c);
        std::printf("%-13s %10s  %s\n", category_name(cat),
                    format_bytes(breakdown.at_peak[c]).c_str(),
                    format_percent(breakdown.fraction(cat)).c_str());
    }

    // 5. The Fig. 2 takeaway, quantified (iteration facet).
    const auto &pattern = study.iteration_pattern();
    std::printf("\niterative pattern: period=%zu allocs, "
                "signature stability=%.0f%%\n",
                pattern.period_allocs,
                pattern.signature_stability * 100.0);
    return 0;
}
