#include "trace/chrome_trace.h"

#include <array>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <ios>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/check.h"
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

namespace {

/** A timestamp printed in microseconds (Chrome traces use us). */
struct Micros {
    TimeNs ns;
};

/**
 * Writes the trace-event array one object at a time. Each object is
 * assembled from its parts in a reused string, so a field of any
 * length (an op name read back from a CSV) is written whole.
 */
class Emitter
{
  public:
    explicit Emitter(std::ostream &os) : os_(os) {}

    void
    begin()
    {
        os_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    }

    void
    end()
    {
        os_ << "\n]}\n";
    }

    /** Emits one JSON object, the concatenation of @p parts. */
    template <typename... Parts>
    void
    event(const Parts &...parts)
    {
        line_.assign(any_ ? ",\n" : "\n");
        any_ = true;
        (put(parts), ...);
        os_.write(line_.data(),
                  static_cast<std::streamsize>(line_.size()));
    }

  private:
    void put(std::string_view text) { line_ += text; }

    void
    put(Micros t)
    {
        // "%.3f" of at most 2^64 ns in us needs 21 characters.
        char buf[32];
        const int n = std::snprintf(buf, sizeof buf, "%.3f",
                                    static_cast<double>(t.ns) / 1000.0);
        PP_CHECK(n > 0 && static_cast<std::size_t>(n) < sizeof buf,
                 "timestamp " << t.ns << " does not format");
        line_.append(buf, static_cast<std::size_t>(n));
    }

    template <typename T>
    std::enable_if_t<std::is_integral_v<T>>
    put(T value)
    {
        char buf[24];
        const auto end = std::to_chars(buf, buf + sizeof buf, value).ptr;
        line_.append(buf, end);
    }

    std::ostream &os_;
    std::string line_;
    bool any_ = false;
};

}  // namespace

void
write_chrome_trace(const TraceRecorder &recorder, std::ostream &os)
{
    Emitter emit(os);
    emit.begin();

    // Process/thread naming metadata for nicer lane labels.
    emit.event("{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
               "\"args\":{\"name\":\"pinpoint device memory\"}}");

    // Escape each interned name once, not once per event.
    std::vector<std::string> names;
    names.reserve(recorder.op_names().size());
    for (const std::string &name : recorder.op_names())
        names.push_back(json_escape(name));

    std::array<std::int64_t, kNumCategories> occupancy{};
    for (const MemoryEvent &e : recorder.events()) {
        const std::string &name = names[e.op];
        const int lane = static_cast<int>(e.category);
        switch (e.kind) {
          case EventKind::kMalloc:
            occupancy[lane] += static_cast<std::int64_t>(e.size);
            emit.event("{\"ph\":\"b\",\"cat\":\"block\",\"id\":",
                       e.block, ",\"pid\":1,\"tid\":", lane,
                       ",\"ts\":", Micros{e.time}, ",\"name\":\"", name,
                       "\",\"args\":{\"size\":", e.size,
                       ",\"ptr\":", e.ptr, "}}");
            break;
          case EventKind::kFree:
            occupancy[lane] -= static_cast<std::int64_t>(e.size);
            emit.event("{\"ph\":\"e\",\"cat\":\"block\",\"id\":",
                       e.block, ",\"pid\":1,\"tid\":", lane,
                       ",\"ts\":", Micros{e.time}, ",\"name\":\"", name,
                       "\"}");
            break;
          case EventKind::kRead:
          case EventKind::kWrite:
            emit.event("{\"ph\":\"i\",\"cat\":\"access\",\"pid\":1,"
                       "\"tid\":",
                       lane, ",\"ts\":", Micros{e.time},
                       ",\"s\":\"t\",\"name\":\"",
                       event_kind_name(e.kind), " ", name,
                       "\",\"args\":{\"block\":", e.block, "}}");
            // An access moves no bytes: no counter sample.
            continue;
        }
        emit.event("{\"ph\":\"C\",\"pid\":1,\"ts\":", Micros{e.time},
                   ",\"name\":\"occupancy\",\"args\":{\"input\":",
                   occupancy[0], ",\"parameter\":", occupancy[1],
                   ",\"intermediate\":", occupancy[2], "}}");
    }
    emit.end();
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
