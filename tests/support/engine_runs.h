/**
 * @file
 * Test-only engine runs: NeverRepeating, an allocator wrapper whose
 * state key never repeats, so an engine over it executes every
 * iteration and records a trace without tiles; and run_engine, which
 * runs a plan on a fresh device with or without it — the independent
 * execution a tiled run is compared with; and serve, a bursty
 * request stream.
 */
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "alloc/allocator.h"
#include "alloc/device_memory.h"
#include "runtime/engine.h"
#include "runtime/plan.h"
#include "runtime/session.h"
#include "sim/clock.h"
#include "sim/cost_model.h"
#include "sim/device_spec.h"
#include "trace/recorder.h"

namespace pinpoint {
namespace test_support {

/**
 * Forwards every call to another allocator, but its state key
 * carries a count of the keys asked for, so no two keys are equal
 * and an engine over it executes every iteration.
 */
class NeverRepeating : public alloc::Allocator
{
  public:
    explicit NeverRepeating(alloc::Allocator &inner) : inner_(inner) {}

    alloc::Block allocate(std::size_t bytes) override
    {
        return inner_.allocate(bytes);
    }
    void deallocate(BlockId id) override { inner_.deallocate(id); }
    const alloc::AllocatorStats &stats() const override
    {
        return inner_.stats();
    }
    std::string name() const override { return inner_.name(); }
    void empty_cache() override { inner_.empty_cache(); }
    std::size_t live_blocks() const override
    {
        return inner_.live_blocks();
    }
    void append_state_key(alloc::StateKey &key) const override
    {
        inner_.append_state_key(key);
        key.push_back(keys_++);
    }
    void fast_forward(const alloc::AllocatorStats &,
                      const alloc::AllocatorStats &) override
    {
        ADD_FAILURE() << "an engine fast-forwarded a key that never "
                         "repeats";
    }

  private:
    alloc::Allocator &inner_;
    mutable std::uint64_t keys_ = 0;
};

/** What one engine run produced. */
struct Outcome {
    trace::TraceRecorder trace;
    alloc::AllocatorStats stats;
    runtime::MemoryUsage usage;
    TimeNs end_time = 0;
    std::size_t peak_reserved_bytes = 0;
    double fragmentation = 0.0;
    int executed = 0;
};

/**
 * Runs @p plan on a fresh Titan X over an allocator of @p kind,
 * wrapped in NeverRepeating when @p independent, lets @p drive run
 * the engine, then tears it down.
 */
inline Outcome
run_engine(const runtime::Plan &plan, runtime::AllocatorKind kind,
           bool independent, const runtime::EngineOptions &options,
           const std::function<void(runtime::Engine &, sim::VirtualClock &,
                                    alloc::Allocator &)> &drive)
{
    const sim::DeviceSpec spec = sim::DeviceSpec::titan_x_pascal();
    alloc::DeviceMemory device(spec.dram_bytes);
    sim::VirtualClock clock;
    const sim::CostModel cost(spec);
    std::unique_ptr<alloc::Allocator> inner =
        runtime::make_session_allocator(kind, device, clock, cost);
    NeverRepeating never(*inner);
    alloc::Allocator &allocator =
        independent ? static_cast<alloc::Allocator &>(never) : *inner;
    Outcome out;
    {
        runtime::Engine engine(plan, allocator, clock, cost, &out.trace,
                               options);
        drive(engine, clock, allocator);
        out.usage = engine.usage();
        out.end_time = clock.now();
        out.fragmentation = device.external_fragmentation();
        out.executed = engine.executed_iterations();
        engine.teardown();
    }
    out.stats = allocator.stats();
    out.peak_reserved_bytes = device.peak_reserved_bytes();
    return out;
}

/**
 * Serves @p requests one run(1) each, idling between bursts of four
 * the way a bursty request stream does.
 */
inline void
serve(runtime::Engine &engine, sim::VirtualClock &clock, int requests)
{
    for (int r = 0; r < requests; ++r) {
        if (r > 0 && r % 4 == 0)
            clock.advance(3 * kNsPerMs + static_cast<TimeNs>(r) * 1000);
        engine.run(1);
    }
}

}  // namespace test_support
}  // namespace pinpoint
