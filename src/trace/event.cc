#include "trace/event.h"

#include "core/check.h"

namespace pinpoint {
namespace trace {

const char *
event_kind_name(EventKind k)
{
    switch (k) {
      case EventKind::kMalloc: return "malloc";
      case EventKind::kFree: return "free";
      case EventKind::kRead: return "read";
      case EventKind::kWrite: return "write";
    }
    PP_ASSERT(false, "unhandled event kind " << static_cast<int>(k));
}

}  // namespace trace
}  // namespace pinpoint
