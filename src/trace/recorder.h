/**
 * @file
 * Trace recorder: accumulates MemoryEvents during a training run.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/types.h"
#include "trace/event.h"

namespace pinpoint {
namespace trace {

/**
 * The events of one trace in columnar storage: one vector per
 * MemoryEvent field, all of one length, event i at index i of each.
 * A TraceRecorder appends to them; a frozen analysis::TraceView
 * shares them read-only.
 */
struct EventColumns {
    std::vector<TimeNs> time;
    std::vector<EventKind> kind;
    std::vector<BlockId> block;
    std::vector<DevPtr> ptr;
    std::vector<std::size_t> size;
    std::vector<TensorId> tensor;
    std::vector<Category> category;
    std::vector<std::uint32_t> iteration;
    std::vector<std::int32_t> op_index;
    std::vector<OpId> op;

    /** @return event @p i, assembled from the columns. */
    MemoryEvent event(std::size_t i) const;
};

/**
 * Read-only view of a trace's events that yields each MemoryEvent
 * by value. Valid while its recorder is alive and unmodified.
 */
class EventRange
{
  public:
    class iterator
    {
      public:
        using iterator_category = std::input_iterator_tag;
        using value_type = MemoryEvent;
        using difference_type = std::ptrdiff_t;
        using pointer = void;
        using reference = MemoryEvent;

        iterator(const EventColumns &columns, std::size_t i)
            : columns_(&columns), i_(i)
        {
        }
        MemoryEvent operator*() const { return columns_->event(i_); }
        iterator &
        operator++()
        {
            ++i_;
            return *this;
        }
        bool operator==(const iterator &o) const { return i_ == o.i_; }
        bool operator!=(const iterator &o) const { return i_ != o.i_; }

      private:
        const EventColumns *columns_;
        std::size_t i_;
    };

    explicit EventRange(const EventColumns &columns)
        : columns_(&columns)
    {
    }

    std::size_t size() const { return columns_->time.size(); }
    bool empty() const { return columns_->time.empty(); }
    MemoryEvent
    operator[](std::size_t i) const
    {
        return columns_->event(i);
    }
    MemoryEvent front() const { return columns_->event(0); }
    MemoryEvent back() const { return columns_->event(size() - 1); }
    iterator begin() const { return iterator(*columns_, 0); }
    iterator end() const { return iterator(*columns_, size()); }

  private:
    const EventColumns *columns_;
};

/**
 * Append-only store of memory behaviors. The engine (and the
 * instrumented allocator wrapper) push events here; the analysis
 * module consumes the finished sequence. Events are expected in
 * non-decreasing time order and the recorder enforces that, because
 * every downstream computation (ATIs, Gantt, breakdown) assumes it.
 *
 * The events live in one EventColumns store that share() hands to
 * frozen views without copying. The recorder keeps value semantics
 * by copy-on-write: record(), clear() and reserve() first copy (or
 * drop) the store while a view or a copied recorder still shares
 * it, so what was shared never changes.
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
    EventRange events() const { return EventRange(columns()); }

    /**
     * @return the event columns. Their address identifies the
     * store: it changes on every write after a share().
     */
    const EventColumns &columns() const;

    /**
     * @return the event columns for a frozen reader. Nothing this
     * recorder does afterwards changes what the handle sees.
     */
    std::shared_ptr<const EventColumns> share() const;

    /** @return number of recorded events. */
    std::size_t size() const { return columns().time.size(); }

    /** @return true when nothing was recorded. */
    bool empty() const { return size() == 0; }

    /** @return the smallest reserved capacity of any column. */
    std::size_t capacity() const;

    /** Drops all recorded events; interned names stay valid. */
    void clear();

    /** Pre-allocates capacity for @p n events. */
    void reserve(std::size_t n);

  private:
    /** @return the store, first made private to this recorder. */
    EventColumns &writable();

    /** Null until the first write; shared after share(). */
    std::shared_ptr<EventColumns> columns_;
    /** Interned names, indexed by OpId. */
    std::vector<std::string> names_;
    /** Name → id, the inverse of names_. */
    std::unordered_map<std::string, OpId> ids_;
    /** Scratch lookup key of intern(). */
    std::string key_;
};

}  // namespace trace
}  // namespace pinpoint
