/**
 * @file
 * ASCII Gantt chart of block lifetimes (the paper's Fig. 2) for
 * terminals.
 */
#pragma once

#include <cstddef>
#include <string>

#include "analysis/timeline.h"

namespace pinpoint {
namespace analysis {

/**
 * Renders @p timeline as an ASCII Gantt over [0, end]: one line per
 * block in address order, 96 columns of '#' spanning its lifetime
 * and '|' at its accesses, annotated with size and category. Over
 * @p max_rows blocks, the largest are kept.
 *
 * @throws Error when the timeline ends at time 0.
 */
std::string render_gantt(const Timeline &timeline, std::size_t max_rows);

}  // namespace analysis
}  // namespace pinpoint
