#include "trace/recorder.h"

#include "core/check.h"
#include "trace/event.h"

namespace pinpoint {
namespace trace {

void
TraceRecorder::record(MemoryEvent event)
{
    PP_CHECK(events_.empty() || event.time >= events_.back().time,
             "events must be recorded in time order: got "
                 << event.time << " after " << events_.back().time);
    events_.push_back(std::move(event));
}

}  // namespace trace
}  // namespace pinpoint
