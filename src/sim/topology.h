/**
 * @file
 * Multi-device topology: N identical accelerator replicas, each
 * with its own PCIe host link, joined by a peer interconnect ring.
 *
 * The paper's testbed is one GPU and one measured host link; its
 * "production scale" counterpart is a data-parallel node where N
 * devices contend on a peer interconnect for every gradient
 * all-reduce while swaps contend on the host links. The peer links
 * are sim::LinkScheduler instances — the same FIFO full-duplex
 * queueing that fixed the dedicated-link fallacy for swaps (PR 2)
 * prices collective legs here, so all-reduce traffic queued behind
 * earlier traffic starts late and the slip is measurable.
 *
 * Ring model: edge i carries traffic from device i to device
 * (i+1) % N. A ring all-reduce of B bytes runs 2*(N-1) lockstep
 * steps of one ceil(B/N)-byte chunk per edge; a step starts when
 * every leg of the previous step has completed.
 */
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/types.h"
#include "sim/device_spec.h"
#include "sim/link_scheduler.h"

namespace pinpoint {
namespace sim {

/**
 * Static parameters of the peer interconnect joining the devices.
 * Bandwidth is per direction per ring edge; the latency is the
 * fixed per-message setup cost every leg pays (negligible on the
 * measured host PCIe asymptote, dominant for small collective
 * chunks on a peer link).
 */
struct InterconnectSpec {
    /** Marketing name, for reports. */
    std::string name;
    /** Per-direction bandwidth of one peer link, bytes/second. */
    double peer_bw_bps = 0.0;
    /** Fixed per-transfer setup latency, nanoseconds. */
    TimeNs latency_ns = 0;

    /** PCIe 3.0 peer-to-peer through the switch (the paper's era). */
    static InterconnectSpec pcie_p2p();
    /** NVLink-class point-to-point interconnect. */
    static InterconnectSpec nvlink();
};

/**
 * @return the preset named @p name: "pcie" or "nvlink".
 * @throws UsageError (topology names are user input) for unknown
 * names; the message lists the known presets.
 */
InterconnectSpec interconnect_by_name(const std::string &name);

/** @return the preset short names, in canonical order. */
std::vector<std::string> interconnect_names();

/** One leg of a collective as scheduled on a ring edge. */
struct CollectiveLeg {
    /** Lockstep step index, 0 .. 2*(N-1)-1. */
    int step = 0;
    /** Sending device (the leg runs on ring edge `device`). */
    int device = 0;
    /** The scheduled slot on the edge's LinkScheduler. */
    LinkTransfer transfer;
};

/** Scheduled outcome of one ring all-reduce. */
struct AllReduceResult {
    /** Participating devices. */
    int devices = 1;
    /** Bytes reduced (the gradient payload). */
    std::size_t bytes = 0;
    /** Per-step chunk size, ceil(bytes / devices). */
    std::size_t chunk_bytes = 0;
    /** Instant the gradients were ready on every device. */
    TimeNs ready = 0;
    /** Instant the last leg of the last step completed. */
    TimeNs finish = 0;
    /** Duration on a dedicated (traffic-free) ring. */
    TimeNs ideal_ns = 0;
    /** Every scheduled leg, in (step, device) order. */
    std::vector<CollectiveLeg> legs;

    /** @return scheduled wall time of the collective. */
    TimeNs duration() const { return finish - ready; }

    /** @return slip past the dedicated-ring duration. */
    TimeNs stall_ns() const
    {
        return duration() > ideal_ns ? duration() - ideal_ns : 0;
    }
};

/**
 * @return the dedicated-ring duration of a ring all-reduce of
 * @p bytes over @p devices devices: 2*(N-1) steps, each paying the
 * interconnect latency plus one ceil(bytes/N)-byte chunk transfer.
 * 0 when @p devices <= 1 (nothing to reduce across).
 */
TimeNs ring_all_reduce_ideal_ns(std::size_t bytes, int devices,
                                const InterconnectSpec &interconnect);

/**
 * N identical device replicas joined by a peer interconnect ring.
 * The peer-link schedulers are owned, stateful, and shared by every
 * collective and peer-offload scheduled on the topology — traffic
 * accumulates, which is exactly what makes contention measurable.
 * Deterministic: scheduling depends only on the submission
 * sequence. Not thread-safe; one topology per simulated node.
 */
class Topology
{
  public:
    /**
     * Builds @p devices replicas of @p device joined by
     * @p interconnect. @throws Error when devices < 1 or the
     * interconnect bandwidth is non-positive with devices > 1.
     */
    Topology(DeviceSpec device, int devices,
             InterconnectSpec interconnect);

    /** @return the replica device spec (homogeneous topology). */
    const DeviceSpec &device() const { return device_; }

    /**
     * Schedules a ring all-reduce of @p bytes, gradients ready on
     * every device at @p ready, onto the peer links. Traffic
     * already queued on an edge delays the colliding step and every
     * later one (lockstep barrier). For a single device the result
     * is empty with finish == ready.
     */
    AllReduceResult all_reduce(std::size_t bytes, TimeNs ready);

    /**
     * @return mean per-direction occupancy of all ring edges over
     * [0, window): 0.0 idle, 1.0 saturated. 0.0 for one device.
     */
    double interconnect_busy_fraction(TimeNs window) const;

  private:
    DeviceSpec device_;
    int devices_ = 1;
    InterconnectSpec interconnect_;
    std::vector<LinkScheduler> peer_links_;
};

}  // namespace sim
}  // namespace pinpoint

