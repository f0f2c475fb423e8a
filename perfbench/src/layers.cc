#include "layers.h"

#include <memory>
#include <vector>

#include "alloc/allocator.h"
#include "alloc/device_memory.h"
#include "core/types.h"
#include "runtime/engine.h"
#include "runtime/plan_builder.h"
#include "sim/clock.h"
#include "sim/cost_model.h"
#include "sim/device_spec.h"
#include "trace/event.h"

namespace perfbench {

namespace pp = pinpoint;

pp::runtime::SessionResult
traced_training(const pp::api::WorkloadSpec &spec,
                const pp::nn::Model &model, Tracer &tracer)
{
    const pp::runtime::SessionConfig config = spec.session_config();
    pp::runtime::SessionResult result;
    {
        Tracer::Span span(tracer, "runtime.plan_build");
        result.plan =
            pp::runtime::build_plan(model, config.batch, config.plan);
    }
    {
        Tracer::Span span(tracer, "runtime.engine");
        pp::alloc::DeviceMemory device(config.device.dram_bytes);
        pp::sim::VirtualClock clock;
        pp::sim::CostModel cost(config.device);
        std::unique_ptr<pp::alloc::Allocator> allocator =
            pp::runtime::make_session_allocator(config.allocator, device,
                                                clock, cost);
        {
            pp::runtime::Engine engine(
                result.plan, *allocator, clock, cost,
                config.record_trace ? &result.trace : nullptr,
                config.engine);
            // The same split as run_training: the last iteration is
            // timed on its own as the steady-state iteration.
            if (config.iterations > 1) {
                engine.run(config.iterations - 1);
                const pp::TimeNs before = clock.now();
                engine.run(1);
                result.iteration_time = clock.now() - before;
            } else {
                engine.run(config.iterations);
            }
            result.usage = engine.usage();
            result.end_time = clock.now();
            result.device_fragmentation =
                device.external_fragmentation();
            engine.teardown();
            result.alloc_stats = allocator->stats();
        }
        result.peak_reserved_bytes = device.peak_reserved_bytes();
    }
    tracer.count("runtime.engine_events",
                 static_cast<double>(result.trace.size()));
    return result;
}

void
replay_allocations(const pp::trace::TraceRecorder &trace,
                   pp::runtime::AllocatorKind kind,
                   const pp::api::WorkloadSpec &spec, Tracer &tracer)
{
    const pp::sim::DeviceSpec device_spec =
        pp::sim::device_spec_by_name(spec.device);
    // Four times the device's memory: the replay measures allocator
    // cost, and allocators that round harder than the one that
    // recorded the trace (buddy) must not run out.
    pp::alloc::DeviceMemory device(4 * device_spec.dram_bytes);
    pp::sim::VirtualClock clock;
    pp::sim::CostModel cost(device_spec);
    std::unique_ptr<pp::alloc::Allocator> allocator =
        pp::runtime::make_session_allocator(kind, device, clock, cost);

    // Recorded block ids are dense and increasing, so a vector maps
    // them to the replay's ids without hashing.
    std::vector<pp::BlockId> live;
    std::size_t ops = 0;
    {
        Tracer::Span span(tracer, "alloc.replay");
        for (const pp::trace::MemoryEvent &event : trace.events()) {
            if (event.kind == pp::trace::EventKind::kMalloc) {
                if (event.block >= live.size())
                    live.resize(event.block + 1, pp::kInvalidBlock);
                live[event.block] = allocator->allocate(event.size).id;
                ++ops;
            } else if (event.kind == pp::trace::EventKind::kFree &&
                       event.block < live.size() &&
                       live[event.block] != pp::kInvalidBlock) {
                allocator->deallocate(live[event.block]);
                live[event.block] = pp::kInvalidBlock;
                ++ops;
            }
        }
    }
    tracer.count("alloc.ops", static_cast<double>(ops));
}

double
layer_ms(const Tracer &per_pass, double passes, const Tracer &probe,
         const std::string &name)
{
    return per_pass.total_ms(name) / passes + probe.total_ms(name);
}

double
layer_count(const Tracer &per_pass, double passes, const Tracer &probe,
            const std::string &name)
{
    return per_pass.counted(name) / passes + probe.counted(name);
}

}  // namespace perfbench
