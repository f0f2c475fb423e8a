#include "sim/clock.h"

#include "core/check.h"
#include "core/types.h"

namespace pinpoint {
namespace sim {

void
VirtualClock::advance_to(TimeNs t)
{
    PP_CHECK(t >= now_, "clock must be monotonic: now=" << now_
             << " target=" << t);
    now_ = t;
}

}  // namespace sim
}  // namespace pinpoint
