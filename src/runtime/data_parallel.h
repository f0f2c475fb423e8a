/**
 * @file
 * Data-parallel characterization: one simulated replica off one
 * plan, gradient all-reduce priced on the peer interconnect.
 *
 * The replicas of a data-parallel run execute the same plan on
 * identical devices, so the simulator runs one full training
 * session — engine, allocator and recorded trace — and that session
 * stands for all N devices. Every single-device analysis
 * (TraceView, ATI, occupancy, swap validation, relief) works on it
 * unchanged. What data parallelism adds on top is the
 * synchronization: one ring all-reduce of the gradient bytes per
 * iteration across the N devices, scheduled on the topology's peer
 * links, whose exposed time stretches the effective iteration and
 * whose queueing slip is reported as stall.
 */
#pragma once

#include <algorithm>
#include <cstddef>

#include "core/types.h"
#include "nn/models.h"
#include "runtime/session.h"
#include "sim/topology.h"

namespace pinpoint {
namespace runtime {

/** Configuration of a data-parallel characterization run. */
struct DataParallelConfig {
    /** Per-replica session configuration (device, batch, ...). */
    SessionConfig session;
    /**
     * Number of data-parallel replicas (>= 1). Above 1 the session
     * needs at least two iterations: the all-reduce schedule is
     * built on the steady-state iteration time, which run_training
     * measures only from the second iteration on.
     */
    int devices = 1;
    /** Peer interconnect joining the replicas. */
    sim::InterconnectSpec interconnect =
        sim::InterconnectSpec::pcie_p2p();
};

/** Everything a data-parallel characterization run produces. */
struct DataParallelResult {
    /**
     * The simulated replica. Every device runs the same plan on the
     * same device model, so this one session stands for all of them.
     */
    SessionResult session;
    /** Number of replicas. */
    int devices = 1;
    /** The interconnect the all-reduces were priced on. */
    sim::InterconnectSpec interconnect;
    /** Gradient payload of one all-reduce (plan parameter bytes). */
    std::size_t gradient_bytes = 0;

    /** Per-replica compute time of one steady-state iteration. */
    TimeNs compute_iteration_time = 0;
    /**
     * Steady-state exposed all-reduce time per iteration: the last
     * iteration's collective, as run_training measures
     * iteration_time.
     */
    TimeNs allreduce_time = 0;
    /** Dedicated-ring all-reduce time (no queued traffic). */
    TimeNs allreduce_ideal_time = 0;
    /** Mean peer-link occupancy over the synchronized timeline. */
    double interconnect_busy_fraction = 0.0;

    /** @return the effective iteration: compute + exposed all-reduce. */
    TimeNs iteration_time() const
    {
        return compute_iteration_time + allreduce_time;
    }
    /** @return the steady-state all-reduce slip past the ideal ring. */
    TimeNs allreduce_stall() const
    {
        return allreduce_time - std::min(allreduce_time, allreduce_ideal_time);
    }
    /** @return compute / effective iteration (speedup / devices under
     * perfect input sharding); 1.0 when the iteration takes no time. */
    double scaling_efficiency() const
    {
        const TimeNs t = iteration_time();
        return t > 0 ? static_cast<double>(compute_iteration_time) /
                           static_cast<double>(t)
                     : 1.0;
    }
};

/**
 * Simulates @p model training once, as the replica every one of
 * @p config.devices identical devices runs, and schedules one
 * gradient ring all-reduce per iteration on a topology built from
 * the session device and @p config.interconnect.
 * Replicas run in lockstep: iteration k's gradients are ready on
 * every device at the same instant, and iteration k+1 starts when
 * the all-reduce lands.
 *
 * @throws Error (or DeviceOomError) when the workload cannot run.
 */
DataParallelResult run_data_parallel(const nn::Model &model,
                                     const DataParallelConfig &config);

}  // namespace runtime
}  // namespace pinpoint

