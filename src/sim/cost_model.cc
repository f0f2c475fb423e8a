#include "sim/cost_model.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"
#include "core/types.h"

namespace pinpoint {
namespace sim {
namespace {

/** Seconds → nanoseconds with rounding. */
TimeNs
sec_to_ns(double sec)
{
    return static_cast<TimeNs>(std::llround(sec * 1e9));
}

}  // namespace

TimeNs
CostModel::kernel_time(double flops, std::size_t bytes_read,
                       std::size_t bytes_written) const
{
    PP_CHECK(flops >= 0.0, "negative flops " << flops);
    const double compute_sec = flops / spec_.fp32_flops;
    const double traffic =
        static_cast<double>(bytes_read + bytes_written);
    const double memory_sec = traffic / spec_.dram_bw_bps;
    return spec_.launch_overhead_ns +
           sec_to_ns(std::max(compute_sec, memory_sec));
}

TimeNs
CostModel::h2d_time(std::size_t bytes) const
{
    return spec_.memcpy_latency_ns +
           sec_to_ns(static_cast<double>(bytes) / spec_.h2d_bw_bps);
}

TimeNs
CostModel::d2h_time(std::size_t bytes) const
{
    return spec_.memcpy_latency_ns +
           sec_to_ns(static_cast<double>(bytes) / spec_.d2h_bw_bps);
}

}  // namespace sim
}  // namespace pinpoint
