/**
 * @file
 * Shared-link transfer scheduler: a single full-duplex PCIe link
 * with one FIFO queue per direction.
 *
 * The paper measures one host link with `bandwidthTest` and feeds
 * it into the Eq. 1 feasibility bound — every D2H and H2D copy of a
 * training process shares that link. Timing each transfer on its
 * own private link (the "dedicated-link fallacy") makes overlapping
 * swaps look free; this scheduler serializes same-direction traffic
 * so a transfer queued behind earlier traffic starts late, and the
 * slip becomes measurable stall in the swap executor.
 */
#pragma once

#include <cstddef>

#include "core/types.h"
#include "sim/pcie.h"

namespace pinpoint {
namespace sim {

/** One transfer as scheduled onto the shared link. */
struct LinkTransfer {
    CopyDir dir = CopyDir::kDeviceToHost;
    std::size_t bytes = 0;
    /** Earliest instant the transfer could have started. */
    TimeNs ready_time = 0;
    /** Scheduled start (>= ready_time; later when queued). */
    TimeNs start_time = 0;
    /** Scheduled completion. */
    TimeNs end_time = 0;

    /** @return time spent waiting behind earlier traffic. */
    TimeNs queue_delay() const { return start_time - ready_time; }

    /** @return link occupancy of this transfer. */
    TimeNs duration() const { return end_time - start_time; }
};

/**
 * Serializes transfers onto one full-duplex link. Each direction is
 * an independent FIFO channel (PCIe is full duplex: a D2H copy does
 * not delay an H2D copy), but two transfers in the same direction
 * never overlap. Submission order is queue order; a submitted
 * transfer starts at max(ready_time, channel busy-until).
 *
 * Deterministic: scheduling depends only on the submission sequence,
 * never on wall-clock or thread timing.
 */
class LinkScheduler
{
  public:
    /**
     * Builds a link with the given per-direction bandwidths in
     * bytes/second and a fixed per-transfer setup latency added to
     * every submitted transfer (0 for the host PCIe link, whose
     * setup cost is already folded into the measured asymptote;
     * non-zero for peer interconnect links, where the per-message
     * cost dominates small collective chunks).
     * @throws Error for non-positive bandwidths.
     */
    LinkScheduler(double d2h_bps, double h2d_bps,
                  TimeNs latency_ns = 0);

    /**
     * Schedules a transfer of @p bytes in direction @p dir that is
     * ready at @p ready_time. @return the scheduled slot.
     */
    LinkTransfer submit(CopyDir dir, std::size_t bytes,
                        TimeNs ready_time);

    /** @return bandwidth of direction @p dir, bytes/second. */
    double bandwidth_bps(CopyDir dir) const;

    /** @return the fixed per-transfer setup latency. */
    TimeNs latency_ns() const { return latency_ns_; }

    /** @return the instant direction @p dir becomes idle. */
    TimeNs busy_until(CopyDir dir) const;

    /** @return total occupied time of direction @p dir. */
    TimeNs busy_time(CopyDir dir) const;

    /**
     * @return mean per-direction occupancy over [0, window): 0.0 is
     * an idle link, 1.0 both directions saturated. @p window is
     * clamped up to the latest scheduled completion.
     */
    double busy_fraction(TimeNs window) const;

  private:
    /** @return 0 for D2H, 1 for H2D. */
    static int index(CopyDir dir)
    {
        return dir == CopyDir::kDeviceToHost ? 0 : 1;
    }

    double bps_[2];
    TimeNs latency_ns_ = 0;
    TimeNs busy_until_[2] = {0, 0};
    TimeNs busy_time_[2] = {0, 0};
};

}  // namespace sim
}  // namespace pinpoint

