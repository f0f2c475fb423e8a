#include "trace/chrome_trace.h"

#include <array>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <string>
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

/** Microsecond timestamp (Chrome traces use us). */
double
ts_us(TimeNs t)
{
    return static_cast<double>(t) / 1000.0;
}

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

    /** Emits one raw JSON object into the event array. */
    void
    event(const std::string &body)
    {
        if (any_)
            os_ << ",";
        os_ << "\n" << body;
        any_ = true;
    }

  private:
    std::ostream &os_;
    bool any_ = false;
};

}  // namespace

void
write_chrome_trace(const TraceRecorder &recorder, std::ostream &os,
                   const ChromeTraceOptions &options)
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
    for (const auto &e : recorder.events()) {
        const char *name = names[e.op].c_str();
        const bool tracked = e.size >= options.min_block_bytes;
        char buf[512];
        switch (e.kind) {
          case EventKind::kMalloc:
            occupancy[static_cast<int>(e.category)] +=
                static_cast<std::int64_t>(e.size);
            if (tracked) {
                std::snprintf(
                    buf, sizeof(buf),
                    "{\"ph\":\"b\",\"cat\":\"block\",\"id\":%llu,"
                    "\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                    "\"name\":\"%s\",\"args\":{\"size\":%zu,"
                    "\"ptr\":%llu}}",
                    static_cast<unsigned long long>(e.block),
                    static_cast<int>(e.category), ts_us(e.time),
                    name, e.size,
                    static_cast<unsigned long long>(e.ptr));
                emit.event(buf);
            }
            break;
          case EventKind::kFree:
            occupancy[static_cast<int>(e.category)] -=
                static_cast<std::int64_t>(e.size);
            if (tracked) {
                std::snprintf(
                    buf, sizeof(buf),
                    "{\"ph\":\"e\",\"cat\":\"block\",\"id\":%llu,"
                    "\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                    "\"name\":\"%s\"}",
                    static_cast<unsigned long long>(e.block),
                    static_cast<int>(e.category), ts_us(e.time),
                    name);
                emit.event(buf);
            }
            break;
          case EventKind::kRead:
          case EventKind::kWrite:
            if (tracked && options.accesses) {
                std::snprintf(
                    buf, sizeof(buf),
                    "{\"ph\":\"i\",\"cat\":\"access\",\"pid\":1,"
                    "\"tid\":%d,\"ts\":%.3f,\"s\":\"t\","
                    "\"name\":\"%s %s\",\"args\":{\"block\":%llu}}",
                    static_cast<int>(e.category), ts_us(e.time),
                    event_kind_name(e.kind),
                    name,
                    static_cast<unsigned long long>(e.block));
                emit.event(buf);
            }
            break;
        }
        if (options.counters &&
            (e.kind == EventKind::kMalloc ||
             e.kind == EventKind::kFree)) {
            std::snprintf(
                buf, sizeof(buf),
                "{\"ph\":\"C\",\"pid\":1,\"ts\":%.3f,"
                "\"name\":\"occupancy\",\"args\":{\"input\":%lld,"
                "\"parameter\":%lld,\"intermediate\":%lld}}",
                ts_us(e.time),
                static_cast<long long>(occupancy[0]),
                static_cast<long long>(occupancy[1]),
                static_cast<long long>(occupancy[2]));
            emit.event(buf);
        }
    }
    emit.end();
    PP_CHECK(os.good(), "chrome trace write failed");
}

void
write_chrome_trace_file(const TraceRecorder &recorder,
                        const std::string &path,
                        const ChromeTraceOptions &options)
{
    std::ofstream os(path);
    PP_CHECK(os.good(), "cannot open '" << path << "' for writing");
    write_chrome_trace(recorder, os, options);
}

}  // namespace trace
}  // namespace pinpoint
