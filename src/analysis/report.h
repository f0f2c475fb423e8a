/**
 * @file
 * Composite characterization report: runs every analysis of the
 * paper over one trace and renders a human-readable summary — the
 * "pinpoint" deliverable a user gets for their own workload.
 */
#pragma once

#include <iosfwd>
#include <string>

#include "analysis/swap_model.h"

namespace pinpoint {
namespace analysis {

/** Report configuration. */
struct ReportOptions {
    /** Workload label printed in the header. */
    std::string title = "training run";
    /** Link bandwidths for the Eq. 1 advice section. */
    LinkBandwidth link{6.4e9, 6.3e9};
    /** Include the ASCII Gantt section (24 rows). */
    bool gantt = true;
};

class TraceView;

/**
 * Writes the full characterization of @p view's trace to @p os:
 * event counts, iterative-pattern verdict, ATI distribution,
 * occupation breakdown, lifetime statistics, outliers, and Eq. 1
 * swap advice. Every section shares @p view's cached sub-indices
 * (timeline, iteration pattern) instead of re-deriving them.
 *
 * @throws Error on empty traces.
 */
void write_report(const TraceView &view, std::ostream &os,
                  const ReportOptions &options = {});

/** @return the report as a string. */
std::string report_string(const TraceView &view,
                          const ReportOptions &options = {});

}  // namespace analysis
}  // namespace pinpoint

