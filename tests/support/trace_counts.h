/**
 * @file
 * Test-only trace helpers. Library code reads per-kind counts from
 * analysis::TraceView::count(), which caches them at freeze time;
 * tests that hold only a recorder rescan it here instead.
 */
#pragma once

#include <algorithm>
#include <cstddef>

#include "trace/event.h"
#include "trace/recorder.h"

namespace pinpoint {
namespace test_support {

/** @return the number of events of kind @p kind in @p recorder. */
inline std::size_t
count_kind(const trace::TraceRecorder &recorder, trace::EventKind kind)
{
    const auto &events = recorder.events();
    return static_cast<std::size_t>(
        std::count_if(events.begin(), events.end(),
                      [kind](const trace::MemoryEvent &e) {
                          return e.kind == kind;
                      }));
}

}  // namespace test_support
}  // namespace pinpoint
