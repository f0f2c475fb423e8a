#include "runtime/session.h"

#include <functional>
#include <memory>

#include "alloc/allocator.h"
#include "alloc/buddy_allocator.h"
#include "alloc/caching_allocator.h"
#include "alloc/device_memory.h"
#include "alloc/direct_allocator.h"
#include "analysis/swap_model.h"
#include "core/check.h"
#include "core/format.h"
#include "core/types.h"
#include "nn/models.h"
#include "runtime/engine.h"
#include "runtime/plan_builder.h"
#include "sim/clock.h"
#include "sim/cost_model.h"
#include "sim/device_spec.h"
#include "swap/planner.h"

namespace pinpoint {
namespace runtime {

const char *
session_mode_name(SessionMode mode)
{
    switch (mode) {
      case SessionMode::kTrain: return "train";
      case SessionMode::kInfer: return "infer";
    }
    return "unknown";
}

std::vector<std::string>
session_mode_names()
{
    std::vector<std::string> names;
    for (int i = 0; i < kNumSessionModes; ++i)
        names.push_back(
            session_mode_name(static_cast<SessionMode>(i)));
    return names;
}

SessionMode
session_mode_from_name(const std::string &name)
{
    if (name == "train")
        return SessionMode::kTrain;
    if (name == "infer")
        return SessionMode::kInfer;
    // Mode names are user input (CLI flags, sweep grids): one typed
    // usage error with one wording for every surface.
    throw UsageError("unknown mode '" + name +
                     "' (known: " + join_names(session_mode_names()) +
                     ")");
}

const char *
allocator_kind_name(AllocatorKind kind)
{
    switch (kind) {
      case AllocatorKind::kCaching: return "caching";
      case AllocatorKind::kDirect: return "direct";
      case AllocatorKind::kBuddy: return "buddy";
    }
    return "unknown";
}

std::vector<std::string>
allocator_names()
{
    std::vector<std::string> names;
    for (int i = 0; i < kNumAllocatorKinds; ++i)
        names.push_back(
            allocator_kind_name(static_cast<AllocatorKind>(i)));
    return names;
}

AllocatorKind
allocator_kind_from_name(const std::string &name)
{
    if (name == "caching")
        return AllocatorKind::kCaching;
    if (name == "direct")
        return AllocatorKind::kDirect;
    if (name == "buddy")
        return AllocatorKind::kBuddy;
    // Allocator names are user input (CLI flags, sweep grids): one
    // typed usage error with one wording for every surface.
    throw UsageError("unknown allocator '" + name +
                     "' (known: " + join_names(allocator_names()) +
                     ")");
}

std::unique_ptr<alloc::Allocator>
make_session_allocator(AllocatorKind kind, alloc::DeviceMemory &device,
                       sim::VirtualClock &clock,
                       const sim::CostModel &cost)
{
    switch (kind) {
      case AllocatorKind::kCaching:
        return std::make_unique<alloc::CachingAllocator>(device, clock,
                                                         cost);
      case AllocatorKind::kDirect:
        return std::make_unique<alloc::DirectAllocator>(device, clock,
                                                        cost);
      case AllocatorKind::kBuddy:
        break;
    }
    // Largest power-of-two arena the device can hold.
    std::size_t arena = 1;
    while (arena * 2 <= device.capacity())
        arena *= 2;
    return std::make_unique<alloc::BuddyAllocator>(device, clock, cost,
                                                   arena);
}

void
run_session(SessionResult &result, const SessionConfig &config,
            int runs,
            const std::function<void(Engine &, sim::VirtualClock &)> &drive)
{
    alloc::DeviceMemory device(config.device.dram_bytes);
    sim::VirtualClock clock;
    sim::CostModel cost(config.device);

    std::unique_ptr<alloc::Allocator> allocator =
        make_session_allocator(config.allocator, device, clock, cost);

    {
        Engine engine(result.plan, *allocator, clock, cost,
                      config.record_trace ? &result.trace : nullptr,
                      config.engine);
        if (config.record_trace)
            result.trace.reserve(engine.trace_events(runs));
        drive(engine, clock);
        result.usage = engine.usage();
        result.end_time = clock.now();
        // Heap-layout fragmentation is meaningful while the workload
        // still holds its blocks, i.e. before teardown.
        result.device_fragmentation = device.external_fragmentation();
        engine.teardown();
        result.alloc_stats = allocator->stats();
    }
    result.peak_reserved_bytes = device.peak_reserved_bytes();
}

SessionResult
run_training(const nn::Model &model, const SessionConfig &config)
{
    SessionResult result;
    result.plan = build_plan(model, config.batch, config.plan);
    run_session(result, config, config.iterations,
                [&](Engine &engine, sim::VirtualClock &clock) {
        if (config.iterations > 1) {
            // Measure steady-state iteration time over the last
            // iterations (the first one pays cold-cache costs).
            engine.run(config.iterations - 1);
            const TimeNs before = clock.now();
            engine.run(1);
            result.iteration_time = clock.now() - before;
        } else {
            engine.run(config.iterations);
        }
    });
    return result;
}

const analysis::TraceView &
SessionResult::view() const
{
    view_slot_->once.call([&] {
        view_slot_->view =
            std::make_unique<const analysis::TraceView>(trace);
    });
    // The snapshot freezes the trace as of the first view() call.
    // `trace` is a public member, so catch the misuse of mutating
    // or replacing it afterwards (or copying the result and
    // diverging the copies' traces around one shared slot) instead
    // of silently planning against stale events. The view shares
    // the recorder's event columns, and every record(), clear() or
    // replacement of the trace leaves it a different store.
    const analysis::TraceView &frozen = *view_slot_->view;
    PP_CHECK(&frozen.columns() == &trace.columns(),
             "SessionResult::trace changed after view() froze it ("
                 << frozen.size() << " events frozen, "
                 << trace.size() << " now); build analyses before "
                                    "mutating the trace");
    return frozen;
}

analysis::LinkBandwidth
fill_link_bandwidth(analysis::LinkBandwidth link,
                    const sim::DeviceSpec &device)
{
    // Fill only the unset legs, so a caller overriding one
    // direction keeps that override.
    if (link.d2h_bps <= 0.0)
        link.d2h_bps = device.d2h_bw_bps;
    if (link.h2d_bps <= 0.0)
        link.h2d_bps = device.h2d_bw_bps;
    return link;
}

swap::PlannerOptions
fill_swap_link(swap::PlannerOptions options,
               const sim::DeviceSpec &device)
{
    options.link = fill_link_bandwidth(options.link, device);
    return options;
}

}  // namespace runtime
}  // namespace pinpoint
