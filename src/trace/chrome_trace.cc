#include "trace/chrome_trace.h"

#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <string>
#include <vector>

#include "core/check.h"
#include "core/row_writer.h"
#include "core/types.h"
#include "trace/event.h"
#include "trace/recorder.h"

namespace pinpoint {
namespace trace {

std::string
json_escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            // RFC 8259: every control character must be escaped.
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned char>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
write_chrome_trace(const TraceRecorder &recorder, std::ostream &os)
{
    RowWriter w(os);
    // Process/thread naming metadata for nicer lane labels; every
    // later object follows it after ",\n".
    w << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
         "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
         "\"args\":{\"name\":\"pinpoint device memory\"}}";

    // Escape each interned name once, not once per event.
    std::vector<std::string> names;
    names.reserve(recorder.op_names().size());
    for (const std::string &name : recorder.op_names())
        names.push_back(json_escape(name));

    std::array<std::int64_t, kNumCategories> occupancy{};
    for (const MemoryEvent &e : recorder.events()) {
        const std::string &name = names[e.op];
        const int lane = static_cast<int>(e.category);
        // Chrome traces count in microseconds.
        const Fixed3 ts{static_cast<double>(e.time) / 1000.0};
        switch (e.kind) {
          case EventKind::kMalloc:
            occupancy[lane] += static_cast<std::int64_t>(e.size);
            w << ",\n{\"ph\":\"b\",\"cat\":\"block\",\"id\":" << e.block
              << ",\"pid\":1,\"tid\":" << lane << ",\"ts\":" << ts
              << ",\"name\":\"" << name << "\",\"args\":{\"size\":"
              << e.size << ",\"ptr\":" << e.ptr << "}}";
            break;
          case EventKind::kFree:
            occupancy[lane] -= static_cast<std::int64_t>(e.size);
            w << ",\n{\"ph\":\"e\",\"cat\":\"block\",\"id\":" << e.block
              << ",\"pid\":1,\"tid\":" << lane << ",\"ts\":" << ts
              << ",\"name\":\"" << name << "\"}";
            break;
          case EventKind::kRead:
          case EventKind::kWrite:
            w << ",\n{\"ph\":\"i\",\"cat\":\"access\",\"pid\":1,"
                 "\"tid\":"
              << lane << ",\"ts\":" << ts << ",\"s\":\"t\",\"name\":\""
              << event_kind_name(e.kind) << ' ' << name
              << "\",\"args\":{\"block\":" << e.block << "}}";
            // An access moves no bytes: no counter sample.
            continue;
        }
        w << ",\n{\"ph\":\"C\",\"pid\":1,\"ts\":" << ts
          << ",\"name\":\"occupancy\",\"args\":{\"input\":"
          << occupancy[0] << ",\"parameter\":" << occupancy[1]
          << ",\"intermediate\":" << occupancy[2] << "}}";
    }
    w << "\n]}\n";
    w.flush();
    PP_CHECK(os.good(), "chrome trace write failed");
}

void
write_chrome_trace_file(const TraceRecorder &recorder,
                        const std::string &path)
{
    std::ofstream os(path);
    PP_CHECK(os.good(), "cannot open '" << path << "' for writing");
    write_chrome_trace(recorder, os);
}

}  // namespace trace
}  // namespace pinpoint
