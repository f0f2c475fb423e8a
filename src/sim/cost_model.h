/**
 * @file
 * Roofline timing model for kernels, memcpys, and driver calls.
 */
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/types.h"
#include "sim/device_spec.h"

namespace pinpoint {
namespace sim {

/**
 * Converts kernel workloads into simulated durations with a classic
 * roofline: duration = launch overhead + max(compute time, memory
 * time). The absolute numbers are calibrated per DeviceSpec; the
 * characterization results depend only on their relative scale
 * (kernel-scale gaps between accesses to the same block).
 */
class CostModel
{
  public:
    /** Builds a cost model for device @p spec. */
    explicit CostModel(DeviceSpec spec) : spec_(std::move(spec)) {}

    /** @return the device spec this model was built from. */
    const DeviceSpec &spec() const { return spec_; }

    /**
     * Duration of one kernel.
     * @param flops floating-point operations performed.
     * @param bytes_read bytes loaded from device DRAM.
     * @param bytes_written bytes stored to device DRAM.
     */
    TimeNs kernel_time(double flops, std::size_t bytes_read,
                       std::size_t bytes_written) const;

    /** Duration of a host-to-device pinned memcpy of @p bytes. */
    TimeNs h2d_time(std::size_t bytes) const;

    /** Duration of a device-to-host pinned memcpy of @p bytes. */
    TimeNs d2h_time(std::size_t bytes) const;

    /** Duration of one cudaMalloc driver call. */
    TimeNs cuda_malloc_time() const { return spec_.cuda_malloc_ns; }

    /** Duration of one cudaFree driver call. */
    TimeNs cuda_free_time() const { return spec_.cuda_free_ns; }

  private:
    DeviceSpec spec_;
};

}  // namespace sim
}  // namespace pinpoint

