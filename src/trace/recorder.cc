#include "trace/recorder.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/check.h"
#include "core/huge_pages.h"
#include "core/types.h"
#include "trace/event.h"

namespace pinpoint {
namespace trace {

namespace {

/** The store of every recorder that has not written yet. */
const std::shared_ptr<const EventColumns> &
empty_columns()
{
    static const std::shared_ptr<const EventColumns> empty =
        std::make_shared<const EventColumns>();
    return empty;
}

/** Events a growing store makes room for at its first append. */
constexpr std::size_t kFirstCapacity = 64;

/** Bytes of one event across the ten columns. */
constexpr std::size_t kEventBytes =
    sizeof(TimeNs) + sizeof(BlockId) + sizeof(DevPtr) +
    sizeof(std::size_t) + sizeof(TensorId) + sizeof(std::uint32_t) +
    sizeof(std::int32_t) + sizeof(OpId) + sizeof(EventKind) +
    sizeof(Category);

/** @return an epoch no recorder has had before. */
std::uint64_t
next_epoch()
{
    static std::atomic<std::uint64_t> epochs{0};
    return epochs.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

EventColumns::EventColumns()
    : time(&length_), kind(&length_), block(&length_), ptr(&length_),
      size(&length_), tensor(&length_), category(&length_),
      iteration(&length_), op_index(&length_), op(&length_)
{
}

EventColumns::EventColumns(const EventColumns &other)
    : EventColumns()
{
    tiles_ = other.tiles_;
    length_ = other.length_;
    if (other.capacity_ != 0) {
        block_.reset(allocate(nullptr, other.capacity_));
        capacity_ = other.capacity_;
        lay_out(other.block_.get(), other.capacity_);
    }
}

MemoryEvent
EventColumns::event(std::size_t i) const
{
    MemoryEvent e;
    e.time = time[i];
    e.kind = kind[i];
    e.block = block[i];
    e.ptr = ptr[i];
    e.size = size[i];
    e.tensor = tensor[i];
    e.category = category[i];
    e.iteration = iteration[i];
    e.op_index = op_index[i];
    e.op = op[i];
    return e;
}

void
EventColumns::reserve(std::size_t n)
{
    if (n <= capacity_)
        return;
    resize_block(n);
    advise_huge_pages(block_.get(), n * kEventBytes);
}

void
EventColumns::repeat(std::size_t begin, std::size_t end,
                     const EventShift &shift)
{
    const std::size_t n = end - begin;
    const std::size_t at = length_;
    if (at + n > capacity_) {
        std::size_t capacity = capacity_;
        while (capacity < at + n)
            capacity = std::max(2 * capacity, kFirstCapacity);
        resize_block(capacity);
    }
    // The source ends at or before `at`, so it and the copy never
    // overlap.
    for (std::size_t i = 0; i < n; ++i)
        time.data_[at + i] = time.data_[begin + i] + shift.time;
    for (std::size_t i = 0; i < n; ++i) {
        const BlockId b = block.data_[begin + i];
        const bool moves = b >= shift.first_block && b != kInvalidBlock;
        block.data_[at + i] = moves ? b + shift.block : b;
    }
    std::fill_n(iteration.data_ + at, n, shift.iteration);
    auto copy = [&](auto *data) {
        std::memcpy(data + at, data + begin, n * sizeof(*data));
    };
    copy(kind.data_);
    copy(ptr.data_);
    copy(size.data_);
    copy(tensor.data_);
    copy(category.data_);
    copy(op_index.data_);
    copy(op.data_);
    length_ = at + n;
    // A copy of a copy is not listed: a tile's source is always
    // events that were recorded one by one.
    const auto after = std::partition_point(
        tiles_.begin(), tiles_.end(),
        [&](const Tile &t) { return t.begin + t.count <= begin; });
    if (after == tiles_.end() || after->begin >= end)
        tiles_.push_back({begin, at, n, shift});
}

void
EventColumns::grow()
{
    resize_block(std::max(2 * capacity_, kFirstCapacity));
}

std::byte *
EventColumns::allocate(std::byte *block, std::size_t capacity)
{
    void *fresh = std::realloc(block, capacity * kEventBytes);
    if (fresh == nullptr)
        throw std::bad_alloc();
    return static_cast<std::byte *>(fresh);
}

void
EventColumns::resize_block(std::size_t capacity)
{
    // realloc keeps the old bytes at the front of the new block (a
    // large block's pages move without a copy or a fresh fault), so
    // the columns move up within it. The old bytes that no column
    // holds now stay resident for the events that will fill them;
    // release_spare() hands back what a frozen store will not fill.
    std::byte *block = allocate(block_.get(), capacity);
    (void)block_.release();
    block_.reset(block);
    const std::size_t from_capacity = capacity_;
    capacity_ = capacity;
    lay_out(block, from_capacity);
}

void
EventColumns::lay_out(const std::byte *from, std::size_t from_capacity)
{
    // Each column starts at capacity_ times the bytes per event of
    // the columns before it. They lie widest first, so each starts
    // aligned for its type, and they are laid out last first, so a
    // column moving up within one block never lands on one that has
    // not moved yet.
    std::byte *to = block_.get();
    std::size_t offset = kEventBytes;
    auto lay = [&](auto *&data) {
        using T = std::remove_reference_t<decltype(*data)>;
        static_assert(std::is_trivially_copyable_v<T>);
        offset -= sizeof(T);
        std::byte *target = to + capacity_ * offset;
        const std::byte *source = from + from_capacity * offset;
        if (length_ != 0 && source != target)
            std::memmove(target, source, length_ * sizeof(T));
        data = reinterpret_cast<T *>(target);
    };
    lay(category.data_);
    lay(kind.data_);
    lay(op.data_);
    lay(op_index.data_);
    lay(iteration.data_);
    lay(tensor.data_);
    lay(size.data_);
    lay(ptr.data_);
    lay(block.data_);
    lay(time.data_);
}

void
EventColumns::release_spare()
{
    if (length_ == capacity_)
        return;
    auto release = [this](auto *data) {
        discard_pages(data + length_,
                      (capacity_ - length_) * sizeof(*data));
    };
    release(time.data_);
    release(kind.data_);
    release(block.data_);
    release(ptr.data_);
    release(size.data_);
    release(tensor.data_);
    release(category.data_);
    release(iteration.data_);
    release(op_index.data_);
    release(op.data_);
}

TraceRecorder::TraceRecorder()
    : names_{std::string()}, ids_{{"", 0}}, epoch_(next_epoch())
{
}

TraceRecorder::TraceRecorder(TraceRecorder &&other) noexcept
    : columns_(std::move(other.columns_)), names_(std::move(other.names_)),
      ids_(std::move(other.ids_)), key_(std::move(other.key_)),
      epoch_(other.epoch_)
{
    other.epoch_ = next_epoch();
}

TraceRecorder &
TraceRecorder::operator=(const TraceRecorder &other)
{
    TraceRecorder copy(other);
    return *this = std::move(copy);
}

TraceRecorder &
TraceRecorder::operator=(TraceRecorder &&other) noexcept
{
    columns_ = std::move(other.columns_);
    names_ = std::move(other.names_);
    ids_ = std::move(other.ids_);
    key_ = std::move(other.key_);
    epoch_ = next_epoch();
    other.epoch_ = next_epoch();
    return *this;
}

void
TraceRecorder::record(const MemoryEvent &event)
{
    const Column<TimeNs> &times = columns().time;
    PP_CHECK(times.empty() || event.time >= times.back(),
             "events must be recorded in time order: got "
                 << event.time << " after " << times.back());
    PP_CHECK(event.op < names_.size(),
             "event op id " << event.op << " is not interned in this "
                            << "recorder");
    writable().append(event);
}

void
TraceRecorder::repeat(std::size_t begin, std::size_t end,
                      const EventShift &shift)
{
    const Column<TimeNs> &times = columns().time;
    PP_CHECK(begin <= end && end <= times.size(),
             "event range [" << begin << ", " << end
                             << ") is not in a trace of "
                             << times.size());
    if (begin == end)
        return;
    const TimeNs first = times[begin] + shift.time;
    PP_CHECK(first >= times.back(),
             "events must be recorded in time order: got "
                 << first << " after " << times.back());
    writable().repeat(begin, end, shift);
}

OpId
TraceRecorder::intern(std::string_view name)
{
    // The lookup key reuses one buffer, so finding a name already in
    // the table allocates nothing (read_csv interns once per row).
    key_.assign(name.data(), name.size());
    const auto [it, added] =
        ids_.try_emplace(key_, static_cast<OpId>(names_.size()));
    if (added)
        names_.push_back(key_);
    return it->second;
}

const std::string &
TraceRecorder::op_name(OpId id) const
{
    PP_CHECK(id < names_.size(),
             "op id " << id << " is not interned in this recorder");
    return names_[id];
}

const EventColumns &
TraceRecorder::columns() const
{
    return columns_ ? *columns_ : *empty_columns();
}

std::shared_ptr<const EventColumns>
TraceRecorder::share() const
{
    if (!columns_)
        return empty_columns();
    // The frozen store never grows, so whatever of its spare room a
    // growth left resident goes back to the kernel. The values stay.
    columns_->release_spare();
    return columns_;
}

std::size_t
TraceRecorder::capacity() const
{
    return columns().capacity();
}

void
TraceRecorder::clear()
{
    epoch_ = next_epoch();
    // A shared store belongs to its readers now: start a new one.
    if (columns_.use_count() == 1)
        columns_->clear();
    else
        columns_.reset();
}

void
TraceRecorder::reserve(std::size_t n)
{
    writable().reserve(n);
}

EventColumns &
TraceRecorder::writable()
{
    // use_count() cannot undercount here: a new sharer has to go
    // through this recorder, so 1 means no view or copy holds it.
    if (!columns_)
        columns_ = std::make_shared<EventColumns>();
    else if (columns_.use_count() > 1)
        columns_ = std::make_shared<EventColumns>(*columns_);
    return *columns_;
}

}  // namespace trace
}  // namespace pinpoint
