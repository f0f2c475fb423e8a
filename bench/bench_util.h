/**
 * @file
 * Shared helpers for the figure-regeneration benches: consistent
 * headers and table formatting.
 */
#pragma once

#include <cstddef>
#include <cstdio>
#include <string>

#include "api/study.h"
#include "core/check.h"

namespace pinpoint {
namespace bench {

/**
 * Per-scenario tally of the shared TraceView's build counters — the
 * PR 5 one-index-build-per-run invariant, enforced and reported in
 * one place. record() PP_CHECKs the allowed build range per
 * scenario; print_trailer() emits the machine-readable line
 * tools/run_benches.py scrapes into BENCH_pr10.json, so the format
 * lives here and nowhere else.
 */
struct ViewBuildTally {
    std::size_t scenarios = 0;
    std::size_t timeline_builds = 0;

    /** Checks @p study built the timeline within [min, max] times
     * and accumulates. Use (1, 1) when the bench reads the
     * timeline, (0, 1) when it may never touch it. */
    void
    record(const api::Study &study, std::size_t min_builds,
           std::size_t max_builds)
    {
        const std::size_t builds =
            study.view().build_stats().timeline_builds;
        PP_CHECK(builds >= min_builds && builds <= max_builds,
                 "scenario built the timeline "
                     << builds << " times (expected " << min_builds
                     << ".." << max_builds << ")");
        ++scenarios;
        timeline_builds += builds;
    }

    /** Prints the bench_stats trailer; a non-zero
     * @p pre_refactor_per_scenario adds the pre-TraceView build
     * count for the perf-trajectory comparison. */
    void
    print_trailer(std::size_t pre_refactor_per_scenario = 0) const
    {
        std::printf(
            "\nbench_stats: scenarios=%zu timeline_builds=%zu",
            scenarios, timeline_builds);
        if (pre_refactor_per_scenario > 0)
            std::printf(" pre_refactor_timeline_builds=%zu",
                        scenarios * pre_refactor_per_scenario);
        std::printf("\n");
    }
};

/** Prints the standard bench banner. */
inline void
banner(const char *experiment, const char *paper_artifact,
       const char *workload)
{
    std::printf("================================================="
                "=============================\n");
    std::printf("%s — reproduces %s\n", experiment, paper_artifact);
    std::printf("workload: %s\n", workload);
    std::printf("================================================="
                "=============================\n");
}

/** Prints a section divider. */
inline void
section(const char *title)
{
    std::printf("\n--- %s ---\n", title);
}

}  // namespace bench
}  // namespace pinpoint

