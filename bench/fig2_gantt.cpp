/**
 * @file
 * E1 / Fig. 2: Gantt chart of the first five iterations of MLP
 * training. Regenerates the paper's rectangles (block lifetime x
 * size), demonstrates the iterative pattern, and quantifies the "few
 * memory fragments" observation.
 */
#include <cstdio>

#include "analysis/gantt.h"
#include "analysis/series.h"
#include "analysis/timeline.h"
#include "analysis/trace_view.h"
#include "api/study.h"
#include "api/workload.h"
#include "bench_util.h"
#include "core/check.h"
#include "core/format.h"
#include "core/types.h"
#include "runtime/session.h"

using namespace pinpoint;

int
main()
{
    bench::banner("fig2_gantt", "Fig. 2 (Gantt of MLP training)",
                  "MLP (2-12288-2), batch 64, SGD, 5 iterations, "
                  "Titan X Pascal");

    api::WorkloadSpec spec;
    spec.model = "mlp";
    spec.batch = 64;
    spec.iterations = 5;
    const api::Study study = api::Study::run(spec);
    const runtime::SessionResult &result = study.result();

    const analysis::Timeline &timeline = study.timeline();
    // Migration hygiene: the cached facet must equal a rebuild on a
    // fresh view — sharing one TraceView changes cost, not results.
    {
        const analysis::TraceView fresh(result.trace);
        const analysis::Timeline &direct = fresh.timeline();
        PP_CHECK(timeline.blocks().size() == direct.blocks().size() &&
                     timeline.end() == direct.end() &&
                     timeline.peak_time() == direct.peak_time(),
                 "Study timeline facet diverged from direct "
                 "reconstruction");
    }
    // The one-build-per-run invariant: everything this bench reads
    // (timeline, pattern, series, gantt) shares one construction.
    bench::check_timeline_builds(study, 1);

    bench::section("block lifetimes (one row per Fig. 2 rectangle)");
    std::printf("%-6s %-28s %-10s %12s %12s %12s\n", "block", "tensor",
                "size", "alloc", "free", "lifetime");
    int rows = 0;
    for (const auto &b : timeline.blocks()) {
        if (rows++ >= 40) {
            std::printf("... (%zu blocks total)\n",
                        timeline.blocks().size());
            break;
        }
        const auto &meta = result.plan.tensors;
        const std::string name =
            b.tensor < meta.size()
                ? meta[static_cast<std::size_t>(b.tensor)].name
                : std::string("dataset.staging");
        std::printf("%-6llu %-28s %-10s %12s %12s %12s\n",
                    static_cast<unsigned long long>(b.block),
                    name.c_str(), format_bytes(b.size).c_str(),
                    format_time(b.alloc_time).c_str(),
                    b.freed ? format_time(b.free_time).c_str() : "live",
                    format_time(b.lifetime(timeline.end())).c_str());
    }

    bench::section("ASCII Gantt (first five iterations)");
    std::printf("%s", analysis::render_gantt(timeline, 32).c_str());

    bench::section("iterative pattern (paper: 'obvious iterative "
                   "memory access patterns')");
    const auto &pattern = study.iteration_pattern();
    std::printf("label-free period: %zu allocations "
                "(confidence %.1f%%)\n",
                pattern.period_allocs,
                pattern.period_confidence * 100.0);
    std::printf("per-iteration allocation signatures identical: "
                "%.1f%% of %zu iterations\n",
                pattern.signature_stability * 100.0,
                pattern.iterations);

    bench::section("total footprint over time (area under the Gantt)");
    const auto series = analysis::occupancy_series(study.view(), 96);
    std::size_t peak_bytes = 0;
    for (const auto &p : series)
        peak_bytes = std::max(peak_bytes, p.total());
    for (std::size_t i = 0; i < series.size(); i += 2) {
        const auto &p = series[i];
        const int bar = peak_bytes > 0
                            ? static_cast<int>(
                                  static_cast<double>(p.total()) /
                                  static_cast<double>(peak_bytes) *
                                  64.0)
                            : 0;
        if (i % 8 == 0) {
            std::printf("%10s |%s\n", format_time(p.time).c_str(),
                        std::string(static_cast<std::size_t>(bar),
                                    '#')
                            .c_str());
        }
    }
    std::printf("peak footprint: %s\n",
                format_bytes(peak_bytes).c_str());

    bench::section("fragmentation (paper: 'fewer memory fragments')");
    const TimeNs probe = timeline.peak_time();
    const auto gaps = timeline.gaps_at(probe);
    std::printf("at peak (%s): %zu live blocks, %s live, span %s, "
                "gaps %s (%.1f%% of span)\n",
                format_time(probe).c_str(), gaps.live_blocks,
                format_bytes(gaps.live_bytes).c_str(),
                format_bytes(gaps.span_bytes).c_str(),
                format_bytes(gaps.gap_bytes).c_str(),
                gaps.gap_fraction() * 100.0);
    std::printf("allocator slack (reserved-allocated) at end: %s\n",
                format_bytes(result.alloc_stats.slack_bytes()).c_str());
    return 0;
}
