/**
 * @file
 * Trace recorder: accumulates MemoryEvents during a training run.
 */
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <unordered_map>
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
 *
 * The recorder also owns the op names its events refer to: a
 * producer interns each name once and stamps the returned OpId on
 * every event, so recording never copies a string.
 */
class TraceRecorder
{
  public:
    /** An empty trace whose name table holds only id 0 (""). */
    TraceRecorder();

    /**
     * Appends @p event.
     * @throws Error if @p event.time precedes the previous event, or
     * @p event.op is not an id of this recorder.
     */
    void record(const MemoryEvent &event);

    /**
     * @return the id of op name @p name, adding it to the table on
     * first use. Ids are dense, in first-intern order.
     */
    OpId intern(std::string_view name);

    /** @return the name of @p id. @throws Error on unknown ids. */
    const std::string &op_name(OpId id) const;

    /** @return every interned name, indexed by OpId. */
    const std::vector<std::string> &op_names() const { return names_; }

    /** @return all recorded events in time order. */
    const std::vector<MemoryEvent> &events() const { return events_; }

    /** @return number of recorded events. */
    std::size_t size() const { return events_.size(); }

    /** @return true when nothing was recorded. */
    bool empty() const { return events_.empty(); }

    /** Drops all recorded events; interned names stay valid. */
    void clear() { events_.clear(); }

    /** Pre-allocates capacity for @p n events. */
    void reserve(std::size_t n) { events_.reserve(n); }

  private:
    std::vector<MemoryEvent> events_;
    /** Interned names, indexed by OpId. */
    std::vector<std::string> names_;
    /** Name → id, the inverse of names_. */
    std::unordered_map<std::string, OpId> ids_;
    /** Scratch lookup key of intern(). */
    std::string key_;
};

}  // namespace trace
}  // namespace pinpoint
