#include "sim/link_scheduler.h"

#include <algorithm>

#include "analysis/swap_model.h"
#include "core/check.h"
#include "core/types.h"
#include "sim/pcie.h"

namespace pinpoint {
namespace sim {

LinkScheduler::LinkScheduler(double d2h_bps, double h2d_bps,
                             TimeNs latency_ns)
    : bps_{d2h_bps, h2d_bps}, latency_ns_(latency_ns)
{
    PP_CHECK(d2h_bps > 0.0 && h2d_bps > 0.0,
             "link scheduler needs positive bandwidths");
}

LinkTransfer
LinkScheduler::submit(CopyDir dir, std::size_t bytes,
                      TimeNs ready_time)
{
    const int i = index(dir);
    LinkTransfer t;
    t.dir = dir;
    t.bytes = bytes;
    t.ready_time = ready_time;
    t.start_time = std::max(ready_time, busy_until_[i]);
    t.end_time = t.start_time + latency_ns_ +
                 analysis::transfer_ns(bytes, bps_[i]);
    busy_until_[i] = t.end_time;
    busy_time_[i] += t.duration();
    return t;
}

double
LinkScheduler::bandwidth_bps(CopyDir dir) const
{
    return bps_[index(dir)];
}

TimeNs
LinkScheduler::busy_until(CopyDir dir) const
{
    return busy_until_[index(dir)];
}

TimeNs
LinkScheduler::busy_time(CopyDir dir) const
{
    return busy_time_[index(dir)];
}

double
LinkScheduler::busy_fraction(TimeNs window) const
{
    const TimeNs span =
        std::max({window, busy_until_[0], busy_until_[1]});
    if (span == 0)
        return 0.0;
    // Full duplex: each direction can carry traffic the whole span,
    // so saturation is 2 * span of channel time.
    return static_cast<double>(busy_time_[0] + busy_time_[1]) /
           (2.0 * static_cast<double>(span));
}

}  // namespace sim
}  // namespace pinpoint
