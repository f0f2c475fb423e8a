/**
 * @file
 * Test-only seeded trace generator: a time-ordered, well-formed
 * trace (every access and free hits a live block) whose blocks take
 * their sizes from a given list, for oracle tests that compare a
 * fast analysis path with the sample-by-sample one.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

#include "core/types.h"
#include "trace/event.h"
#include "trace/recorder.h"

namespace pinpoint {
namespace test_support {

/**
 * @return @p steps events from @p seed. Time advances by a random
 * multiple (0 to 3) of @p tick per event, so equal timestamps and
 * equal intervals are common; each malloc takes a size from
 * @p sizes, and some mallocs reuse a freed block id, which must
 * start a fresh ATI chain.
 */
inline std::vector<trace::MemoryEvent>
random_events(std::uint64_t seed, std::size_t steps,
              const std::vector<std::size_t> &sizes, TimeNs tick)
{
    std::mt19937_64 rng(seed);
    std::vector<trace::MemoryEvent> events;
    std::vector<BlockId> live;
    std::vector<std::size_t> live_size;
    std::vector<BlockId> freed;
    BlockId next = 1;
    TimeNs now = 0;
    for (std::size_t step = 0; step < steps; ++step) {
        now += tick * (rng() % 4);
        trace::MemoryEvent e;
        e.time = now;
        const std::uint64_t action = rng() % 10;
        if (live.empty() || action < 2) {
            e.kind = trace::EventKind::kMalloc;
            if (action == 0 && !freed.empty()) {
                e.block = freed.back();
                freed.pop_back();
            } else {
                e.block = next++;
            }
            e.size = sizes[rng() % sizes.size()];
            live.push_back(e.block);
            live_size.push_back(e.size);
        } else {
            const std::size_t k = rng() % live.size();
            e.block = live[k];
            e.size = live_size[k];
            if (action < 9) {
                e.kind = action % 2 ? trace::EventKind::kRead
                                    : trace::EventKind::kWrite;
            } else {
                e.kind = trace::EventKind::kFree;
                freed.push_back(live[k]);
                live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
                live_size.erase(live_size.begin() +
                                static_cast<std::ptrdiff_t>(k));
            }
        }
        events.push_back(e);
    }
    return events;
}

/** @return random_events(...) recorded into a fresh recorder. */
inline trace::TraceRecorder
random_trace(std::uint64_t seed, std::size_t steps,
             const std::vector<std::size_t> &sizes, TimeNs tick)
{
    trace::TraceRecorder r;
    for (const trace::MemoryEvent &e :
         random_events(seed, steps, sizes, tick))
        r.record(e);
    return r;
}

}  // namespace test_support
}  // namespace pinpoint
