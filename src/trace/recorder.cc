#include "trace/recorder.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <memory>
#include <string>
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

/** Calls @p f on every column of @p columns, in field order. */
template <typename Columns, typename F>
void
for_each_column(Columns &columns, F f)
{
    f(columns.time);
    f(columns.kind);
    f(columns.block);
    f(columns.ptr);
    f(columns.size);
    f(columns.tensor);
    f(columns.category);
    f(columns.iteration);
    f(columns.op_index);
    f(columns.op);
}

}  // namespace

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

TraceRecorder::TraceRecorder() : names_{std::string()}, ids_{{"", 0}} {}

void
TraceRecorder::record(const MemoryEvent &event)
{
    const std::vector<TimeNs> &times = columns().time;
    PP_CHECK(times.empty() || event.time >= times.back(),
             "events must be recorded in time order: got "
                 << event.time << " after " << times.back());
    PP_CHECK(event.op < names_.size(),
             "event op id " << event.op << " is not interned in this "
                            << "recorder");
    EventColumns &c = writable();
    c.time.push_back(event.time);
    c.kind.push_back(event.kind);
    c.block.push_back(event.block);
    c.ptr.push_back(event.ptr);
    c.size.push_back(event.size);
    c.tensor.push_back(event.tensor);
    c.category.push_back(event.category);
    c.iteration.push_back(event.iteration);
    c.op_index.push_back(event.op_index);
    c.op.push_back(event.op);
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
    return columns_;
}

std::size_t
TraceRecorder::capacity() const
{
    std::size_t least = std::numeric_limits<std::size_t>::max();
    for_each_column(columns(), [&least](const auto &column) {
        least = std::min(least, column.capacity());
    });
    return least;
}

void
TraceRecorder::clear()
{
    // A shared store belongs to its readers now: start a new one.
    if (columns_.use_count() == 1)
        for_each_column(*columns_, [](auto &column) { column.clear(); });
    else
        columns_.reset();
}

void
TraceRecorder::reserve(std::size_t n)
{
    for_each_column(writable(),
                    [n](auto &column) { reserve_huge(column, n); });
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
