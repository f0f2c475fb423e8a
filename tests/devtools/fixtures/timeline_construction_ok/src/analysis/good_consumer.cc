// Fixture: must analyze clean. Consumers borrow the one shared
// Timeline from the TraceView; member calls and references whose
// names merely contain "timeline" do not match the rule.
#include "analysis/trace_view.h"

namespace pinpoint {
namespace analysis {

std::size_t
shared_peak(const TraceView &view)
{
    const Timeline &shared = view.timeline();
    return shared.peak_bytes();
}

}  // namespace analysis
}  // namespace pinpoint
