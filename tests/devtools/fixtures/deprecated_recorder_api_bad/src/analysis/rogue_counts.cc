// Fixture: MUST trigger [deprecated-recorder-api].
// TraceRecorder::count rescans every event per call; analysis code
// reads the TraceView's cached per-kind counts instead.
#include "trace/recorder.h"

namespace pinpoint {
namespace analysis {

std::size_t
rogue_malloc_count(const trace::TraceRecorder &recorder)
{
    return recorder.count(trace::EventKind::kMalloc);  // violation
}

}  // namespace analysis
}  // namespace pinpoint
