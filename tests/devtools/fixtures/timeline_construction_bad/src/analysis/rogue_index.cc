// Fixture: MUST trigger [timeline-construction]. A consumer builds
// its own Timeline instead of borrowing view.timeline() — the exact
// rebuild-per-consumer cost PR 5 removed.
#include "analysis/timeline.h"

namespace pinpoint {
namespace analysis {

std::size_t
rogue_peak(const TraceView &view)
{
    Timeline private_rebuild = Timeline();  // violation
    return private_rebuild.peak_bytes();
}

}  // namespace analysis
}  // namespace pinpoint
