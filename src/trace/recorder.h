/**
 * @file
 * Trace recorder: accumulates MemoryEvents during a training run.
 */
#pragma once

#include <cstddef>
#include <vector>

#include "trace/event.h"

namespace pinpoint {
namespace trace {

/**
 * Append-only store of memory behaviors. The engine (and the
 * instrumented allocator wrapper) push events here; the analysis
 * module consumes the finished sequence. Events are expected in
 * non-decreasing time order and the recorder enforces that, because
 * every downstream computation (ATIs, Gantt, breakdown) assumes it.
 */
class TraceRecorder
{
  public:
    TraceRecorder() = default;

    /**
     * Appends @p event.
     * @throws Error if @p event.time precedes the previous event.
     */
    void record(MemoryEvent event);

    /** @return all recorded events in time order. */
    const std::vector<MemoryEvent> &events() const { return events_; }

    /** @return number of recorded events. */
    std::size_t size() const { return events_.size(); }

    /** @return true when nothing was recorded. */
    bool empty() const { return events_.empty(); }

    /** Drops all recorded events. */
    void clear() { events_.clear(); }

    /** Pre-allocates capacity for @p n events. */
    void reserve(std::size_t n) { events_.reserve(n); }

  private:
    std::vector<MemoryEvent> events_;
};

}  // namespace trace
}  // namespace pinpoint

