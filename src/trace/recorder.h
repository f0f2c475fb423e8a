/**
 * @file
 * Trace recorder: accumulates MemoryEvents during a run. Each trace
 * is one EventColumns block, a column per MemoryEvent field with one
 * length and one capacity, so a record is one capacity check, one
 * store per field and one length bump, and a repeated iteration is
 * copied whole from the trace's own earlier events, shifted, and
 * listed as a Tile (repeat); readers see the columns through
 * read-only Column views, or event by event as an EventRange.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
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
 * Read-only view of one field of every event in an EventColumns
 * store: event i's value at index i. Its length is the store's.
 */
template <typename T>
class Column
{
  public:
    std::size_t size() const { return *length_; }
    bool empty() const { return *length_ == 0; }
    const T &operator[](std::size_t i) const { return data_[i]; }
    const T &front() const { return data_[0]; }
    const T &back() const { return data_[*length_ - 1]; }
    const T *data() const { return data_; }
    const T *begin() const { return data_; }
    const T *end() const { return data_ + *length_; }

  private:
    friend class EventColumns;

    explicit Column(const std::size_t *length) : length_(length) {}

    T *data_ = nullptr;
    const std::size_t *length_;
};

/**
 * How TraceRecorder::repeat places a copied run of events later in a
 * trace: every time moves by `time`, every block id from
 * `first_block` up moves by `block`, and every event gets iteration
 * label `iteration`. The other fields are copied as they are.
 */
struct EventShift {
    TimeNs time = 0;
    BlockId first_block = 0;
    BlockId block = 0;
    std::uint32_t iteration = 0;
};

/**
 * A run of events that is a shifted copy of earlier events of the
 * same trace: events [begin, begin + count) are events [source,
 * source + count) moved by `shift`. TraceRecorder::repeat makes the
 * copy and the tile together, so a tile always describes its events.
 */
struct Tile {
    std::size_t source = 0;
    std::size_t begin = 0;
    std::size_t count = 0;
    EventShift shift;
};

/**
 * The events of one trace in columnar storage: one column per
 * MemoryEvent field, event i at index i of each. The ten columns lie
 * back to back in one allocation (8-byte fields first, then 4-byte,
 * then 1-byte) that shares one length and one capacity, so
 * appending an event is one capacity check, ten stores and one
 * length bump. Only a TraceRecorder writes the store; a frozen
 * analysis::TraceView shares it read-only.
 */
class EventColumns
{
  public:
    Column<TimeNs> time;
    Column<EventKind> kind;
    Column<BlockId> block;
    Column<DevPtr> ptr;
    Column<std::size_t> size;
    Column<TensorId> tensor;
    Column<Category> category;
    Column<std::uint32_t> iteration;
    Column<std::int32_t> op_index;
    Column<OpId> op;

    EventColumns();
    /** Copies @p other whole, at its capacity, with its tiles. */
    EventColumns(const EventColumns &other);
    EventColumns &operator=(const EventColumns &) = delete;

    /** @return event @p i, assembled from the columns. */
    MemoryEvent event(std::size_t i) const;

    /** @return the events the block holds without growing. */
    std::size_t capacity() const { return capacity_; }

    /**
     * @return the runs of events that copy earlier ones, in trace
     * order: no two overlap, and no tile's source overlaps a tile.
     * Empty for a trace that was only ever record()ed.
     */
    const std::vector<Tile> &tiles() const { return tiles_; }

  private:
    friend class TraceRecorder;

    /** Frees a block from std::realloc. */
    struct FreeBlock {
        void operator()(std::byte *block) const { std::free(block); }
    };

    /** Appends @p e, doubling the block when it is full. */
    void
    append(const MemoryEvent &e)
    {
        const std::size_t i = length_;
        if (i == capacity_)
            grow();
        time.data_[i] = e.time;
        kind.data_[i] = e.kind;
        block.data_[i] = e.block;
        ptr.data_[i] = e.ptr;
        size.data_[i] = e.size;
        tensor.data_[i] = e.tensor;
        category.data_[i] = e.category;
        iteration.data_[i] = e.iteration;
        op_index.data_[i] = e.op_index;
        op.data_[i] = e.op;
        length_ = i + 1;
    }

    /**
     * Appends events [@p begin, @p end) of this store, moved by
     * @p shift, and lists them as a tile unless the source overlaps
     * a tile. The block grows to the capacity as many appends of one
     * event would give it, in one step.
     */
    void repeat(std::size_t begin, std::size_t end,
                const EventShift &shift);

    /**
     * Makes room for @p n events: the block is resized once, to
     * exactly @p n, with a huge-page hint (core/huge_pages.h).
     */
    void reserve(std::size_t n);

    /** Drops every event and tile; the block stays. */
    void
    clear()
    {
        length_ = 0;
        tiles_.clear();
    }

    /**
     * Hands the whole pages of every column's room past length_ back
     * to the kernel (core/huge_pages.h): a growth leaves some of them
     * resident, which only later appends would use.
     */
    void release_spare();

    /**
     * @return @p block (null for none) resized by std::realloc to
     * @p capacity events. @throws std::bad_alloc when that fails.
     */
    static std::byte *allocate(std::byte *block, std::size_t capacity);

    /** Resizes the block to @p capacity events, keeping the events. */
    void resize_block(std::size_t capacity);

    /** Doubles the block (and makes the first one). */
    void grow();

    /**
     * Points the columns at their places in this store's block of
     * capacity_ events and moves the first length_ values of each
     * there from block @p from of @p from_capacity events, which may
     * be this block, holding the columns at their old places.
     */
    void lay_out(const std::byte *from, std::size_t from_capacity);

    std::size_t length_ = 0;
    std::size_t capacity_ = 0;
    std::unique_ptr<std::byte, FreeBlock> block_;
    std::vector<Tile> tiles_;
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

    /** A copy and a move keep the source's epoch(). */
    TraceRecorder(const TraceRecorder &other) = default;
    /** The moved-from recorder holds no events: it takes a new epoch. */
    TraceRecorder(TraceRecorder &&other) noexcept;
    /**
     * Assignment changes the events at this recorder's indices, so it
     * takes a new epoch(); so does a moved-from @p other.
     */
    TraceRecorder &operator=(const TraceRecorder &other);
    TraceRecorder &operator=(TraceRecorder &&other) noexcept;

    /**
     * Appends @p event.
     * @throws Error if @p event.time precedes the previous event, or
     * @p event.op is not an id of this recorder.
     */
    void record(const MemoryEvent &event);

    /**
     * Appends a copy of this trace's own events [@p begin, @p end),
     * moved by @p shift (EventShift), in one step: a whole iteration
     * of a repeating run. The copy is listed in columns().tiles()
     * unless its source overlaps a tile.
     * @throws Error if the range is not in the trace, or its first
     * moved event precedes the last recorded one.
     */
    void repeat(std::size_t begin, std::size_t end,
                const EventShift &shift);

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
     * recorder does afterwards changes what the handle sees. The
     * store's spare room goes back to the kernel first.
     */
    std::shared_ptr<const EventColumns> share() const;

    /** @return number of recorded events. */
    std::size_t size() const { return columns().time.size(); }

    /** @return true when nothing was recorded. */
    bool empty() const { return size() == 0; }

    /** @return the events the store holds without growing. */
    std::size_t capacity() const;

    /** Drops all recorded events; interned names stay valid. */
    void clear();

    /**
     * @return a number that identifies this trace's events: a new
     * recorder, every clear() and every assignment take one no other
     * recorder has had, and a copy keeps it. While it is unchanged,
     * every event recorded under it is still in the trace at its
     * index.
     */
    std::uint64_t epoch() const { return epoch_; }

    /**
     * Pre-allocates capacity for @p n events in one block, with a
     * huge-page hint on it (core/huge_pages.h).
     */
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
    std::uint64_t epoch_;
};

}  // namespace trace
}  // namespace pinpoint
