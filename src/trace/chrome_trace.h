/**
 * @file
 * Chrome trace-event export: renders a memory-behavior trace as a
 * JSON file loadable in chrome://tracing or Perfetto, giving an
 * interactive version of the paper's Fig. 2 — one async lane per
 * block (lifetime bar with access instants) plus per-category
 * occupancy counters.
 */
#pragma once

#include <iosfwd>
#include <string>

#include "trace/recorder.h"

namespace pinpoint {
namespace trace {

/**
 * Escapes @p s for embedding inside a JSON string literal. Shared by
 * every JSON-emitting exporter (Chrome traces, sweep reports).
 */
std::string json_escape(const std::string &s);

/**
 * Writes @p recorder as Chrome trace-event JSON to @p os: every
 * block's lifetime, every access as an instant, and the occupancy
 * counters after every malloc and free.
 */
void write_chrome_trace(const TraceRecorder &recorder, std::ostream &os);

/** Writes the JSON to @p path. @throws Error on I/O failure. */
void write_chrome_trace_file(const TraceRecorder &recorder,
                             const std::string &path);

}  // namespace trace
}  // namespace pinpoint

