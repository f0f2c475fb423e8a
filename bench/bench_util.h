/**
 * @file
 * Shared helpers for the figure-regeneration benches: consistent
 * headers, table formatting and the per-scenario index-build check.
 * Every bench runs as a ctest test, so its PP_CHECKs are asserts.
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
 * Checks that @p study built its shared TraceView timeline exactly
 * @p expected times: the one-index-build-per-run invariant, asserted
 * per scenario. 1 when the bench reads the timeline, 0 when it must
 * never touch it.
 */
inline void
check_timeline_builds(const api::Study &study, std::size_t expected)
{
    const std::size_t builds = study.view().build_stats().timeline_builds;
    PP_CHECK(builds == expected, "scenario built the timeline "
                                     << builds << " times (expected "
                                     << expected << ")");
}

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

