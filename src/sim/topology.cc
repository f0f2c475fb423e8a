#include "sim/topology.h"

#include <algorithm>

#include "analysis/swap_model.h"
#include "core/check.h"
#include "core/format.h"
#include "core/types.h"
#include "sim/device_spec.h"
#include "sim/link_scheduler.h"
#include "sim/pcie.h"

namespace pinpoint {
namespace sim {
namespace {

constexpr double kGB = 1024.0 * 1024.0 * 1024.0;

}  // namespace

InterconnectSpec
InterconnectSpec::pcie_p2p()
{
    InterconnectSpec s;
    s.name = "PCIe 3.0 peer-to-peer";
    // Peer copies cross the PCIe switch twice, so the sustained
    // rate lands below the paper's 6.3/6.4 GB/s host asymptote
    // only when the root complex bounces; through a common switch
    // the devices see close to the x16 wire rate.
    s.peer_bw_bps = 10.0 * kGB;
    s.latency_ns = 1800;
    return s;
}

InterconnectSpec
InterconnectSpec::nvlink()
{
    InterconnectSpec s;
    s.name = "NVLink 2.0 x2";
    s.peer_bw_bps = 48.0 * kGB;
    s.latency_ns = 700;
    return s;
}

namespace {

/** Single source of truth for the preset name → factory mapping. */
struct Preset {
    const char *name;
    InterconnectSpec (*make)();
};

constexpr Preset kPresets[] = {
    {"pcie", &InterconnectSpec::pcie_p2p},
    {"nvlink", &InterconnectSpec::nvlink},
};

}  // namespace

InterconnectSpec
interconnect_by_name(const std::string &name)
{
    for (const Preset &preset : kPresets)
        if (name == preset.name)
            return preset.make();
    // Topology names are user input (CLI flags, sweep grids): one
    // typed usage error with one wording for every surface.
    throw UsageError("unknown topology '" + name + "' (known: " +
                     join_names(interconnect_names()) + ")");
}

std::vector<std::string>
interconnect_names()
{
    std::vector<std::string> names;
    for (const Preset &preset : kPresets)
        names.push_back(preset.name);
    return names;
}

TimeNs
ring_all_reduce_ideal_ns(std::size_t bytes, int devices,
                         const InterconnectSpec &interconnect)
{
    if (devices <= 1 || bytes == 0)
        return 0;
    const std::size_t n = static_cast<std::size_t>(devices);
    const std::size_t chunk = (bytes + n - 1) / n;
    const TimeNs step =
        interconnect.latency_ns +
        analysis::transfer_ns(chunk, interconnect.peer_bw_bps);
    return static_cast<TimeNs>(2 * (n - 1)) * step;
}

Topology::Topology(DeviceSpec device, int devices,
                   InterconnectSpec interconnect)
    : device_(std::move(device)), devices_(devices),
      interconnect_(std::move(interconnect))
{
    PP_CHECK(devices_ >= 1, "topology needs at least one device");
    if (devices_ > 1) {
        PP_CHECK(interconnect_.peer_bw_bps > 0.0,
                 "multi-device topology needs a positive peer "
                 "interconnect bandwidth");
        peer_links_.reserve(static_cast<std::size_t>(devices_));
        for (int i = 0; i < devices_; ++i)
            peer_links_.emplace_back(interconnect_.peer_bw_bps,
                                     interconnect_.peer_bw_bps,
                                     interconnect_.latency_ns);
    }
}

AllReduceResult
Topology::all_reduce(std::size_t bytes, TimeNs ready)
{
    AllReduceResult result;
    result.devices = devices_;
    result.bytes = bytes;
    result.ready = ready;
    result.finish = ready;
    if (devices_ <= 1 || bytes == 0)
        return result;

    const std::size_t n = static_cast<std::size_t>(devices_);
    result.chunk_bytes = (bytes + n - 1) / n;
    result.ideal_ns =
        ring_all_reduce_ideal_ns(bytes, devices_, interconnect_);

    // 2*(N-1) lockstep steps: N-1 reduce-scatter then N-1
    // all-gather. Every step ships one chunk per ring edge in the
    // forward direction; the next step starts when the slowest leg
    // of this one lands (the algorithm's neighbour dependency,
    // collapsed to a barrier because replicas run in lockstep).
    const int steps = 2 * (devices_ - 1);
    TimeNs step_ready = ready;
    for (int step = 0; step < steps; ++step) {
        TimeNs step_end = step_ready;
        for (int d = 0; d < devices_; ++d) {
            CollectiveLeg leg;
            leg.step = step;
            leg.device = d;
            leg.transfer = peer_links_[static_cast<std::size_t>(d)]
                               .submit(CopyDir::kDeviceToHost,
                                       result.chunk_bytes,
                                       step_ready);
            step_end = std::max(step_end, leg.transfer.end_time);
            result.legs.push_back(leg);
        }
        step_ready = step_end;
    }
    result.finish = step_ready;
    return result;
}

double
Topology::interconnect_busy_fraction(TimeNs window) const
{
    if (peer_links_.empty())
        return 0.0;
    double sum = 0.0;
    for (const LinkScheduler &link : peer_links_)
        sum += link.busy_fraction(window);
    return sum / static_cast<double>(peer_links_.size());
}

}  // namespace sim
}  // namespace pinpoint
