#include "trace/recorder.h"

#include "core/check.h"
#include "trace/event.h"

namespace pinpoint {
namespace trace {

TraceRecorder::TraceRecorder() : names_{std::string()}, ids_{{"", 0}} {}

void
TraceRecorder::record(const MemoryEvent &event)
{
    PP_CHECK(events_.empty() || event.time >= events_.back().time,
             "events must be recorded in time order: got "
                 << event.time << " after " << events_.back().time);
    PP_CHECK(event.op < names_.size(),
             "event op id " << event.op << " is not interned in this "
                            << "recorder");
    events_.push_back(event);
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

}  // namespace trace
}  // namespace pinpoint
