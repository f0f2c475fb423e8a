/** @file Unit tests for the Chrome trace-event export. */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>

#include "core/check.h"
#include "trace/chrome_trace.h"

namespace pinpoint {
namespace trace {
namespace {

MemoryEvent
ev(TraceRecorder &r, TimeNs t, EventKind kind, BlockId block,
   std::size_t size, const std::string &op = "op")
{
    MemoryEvent e;
    e.time = t;
    e.kind = kind;
    e.block = block;
    e.size = size;
    e.op = r.intern(op);
    return e;
}

TraceRecorder
small_trace()
{
    TraceRecorder r;
    r.record(ev(r, 1000, EventKind::kMalloc, 1, 4096, "alloc.x"));
    r.record(ev(r, 2000, EventKind::kWrite, 1, 4096, "fc0.mat_mul"));
    r.record(ev(r, 3000, EventKind::kRead, 1, 4096, "fc0.backward"));
    r.record(ev(r, 4000, EventKind::kFree, 1, 4096, "free.x"));
    return r;
}

TEST(ChromeTrace, EmitsValidJsonSkeleton)
{
    std::stringstream ss;
    write_chrome_trace(small_trace(), ss);
    const std::string out = ss.str();
    EXPECT_EQ(out.find("{\"displayTimeUnit\":\"ms\""), 0u);
    EXPECT_NE(out.find("\"traceEvents\":["), std::string::npos);
    EXPECT_EQ(out.rfind("]}\n"), out.size() - 3);
    // Balanced braces — cheap structural sanity.
    EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
              std::count(out.begin(), out.end(), '}'));
}

TEST(ChromeTrace, LifetimeBecomesAsyncBeginEndPair)
{
    std::stringstream ss;
    write_chrome_trace(small_trace(), ss);
    const std::string out = ss.str();
    EXPECT_NE(out.find("\"ph\":\"b\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"e\""), std::string::npos);
    EXPECT_NE(out.find("\"id\":1"), std::string::npos);
    // Timestamps are microseconds: 1000 ns -> 1.000 us.
    EXPECT_NE(out.find("\"ts\":1.000"), std::string::npos);
}

TEST(ChromeTrace, AccessesBecomeInstants)
{
    std::stringstream ss;
    write_chrome_trace(small_trace(), ss);
    EXPECT_NE(ss.str().find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(ss.str().find("write fc0.mat_mul"), std::string::npos);
}

TEST(ChromeTrace, CountersTrackOccupancy)
{
    std::stringstream ss;
    write_chrome_trace(small_trace(), ss);
    EXPECT_NE(ss.str().find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(ss.str().find("\"intermediate\":4096"),
              std::string::npos);
    EXPECT_NE(ss.str().find("\"intermediate\":0"), std::string::npos)
        << "counter returns to zero after the free";
}

TEST(ChromeTrace, EscapesSpecialCharactersInOpNames)
{
    TraceRecorder r;
    r.record(ev(r, 0, EventKind::kMalloc, 1, 512, "weird\"op\\name"));
    std::stringstream ss;
    write_chrome_trace(r, ss);
    EXPECT_NE(ss.str().find("weird\\\"op\\\\name"),
              std::string::npos);
}

/**
 * Expects every event line of @p out to hold exactly one JSON
 * object: strings closed, braces balanced, nothing after the last
 * brace but the separating comma.
 */
void
expect_objects_close(const std::string &out)
{
    std::istringstream lines(out);
    std::string line;
    std::size_t objects = 0;
    while (std::getline(lines, line)) {
        if (line.rfind("{\"ph\"", 0) != 0)
            continue;
        ++objects;
        int depth = 0;
        bool in_string = false;
        bool escaped = false;
        std::size_t closed_at = std::string::npos;
        for (std::size_t i = 0; i < line.size(); ++i) {
            const char c = line[i];
            if (in_string) {
                if (escaped)
                    escaped = false;
                else if (c == '\\')
                    escaped = true;
                else if (c == '"')
                    in_string = false;
            } else if (c == '"') {
                in_string = true;
            } else if (c == '{') {
                ++depth;
            } else if (c == '}' && --depth == 0) {
                closed_at = i;
                break;
            }
        }
        ASSERT_NE(closed_at, std::string::npos) << line;
        const std::string rest = line.substr(closed_at + 1);
        EXPECT_TRUE(rest.empty() || rest == ",") << line;
    }
    EXPECT_GT(objects, 0u);
}

/** @return @p out's count of non-overlapping @p needle matches. */
std::size_t
occurrences(const std::string &out, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t at = out.find(needle); at != std::string::npos;
         at = out.find(needle, at + needle.size()))
        ++n;
    return n;
}

/** A malloc, write, read and free of one block, all named @p op. */
std::string
chrome_trace_named(const std::string &op)
{
    TraceRecorder r;
    r.record(ev(r, 1000, EventKind::kMalloc, 1, 4096, op));
    r.record(ev(r, 2000, EventKind::kWrite, 1, 4096, op));
    r.record(ev(r, 3000, EventKind::kRead, 1, 4096, op));
    r.record(ev(r, 4000, EventKind::kFree, 1, 4096, op));
    std::stringstream ss;
    write_chrome_trace(r, ss);
    return ss.str();
}

TEST(ChromeTrace, LongOpNameIsWrittenWhole)
{
    const std::string op = std::string(300, 'a') + "\"\\" +
                           std::string(298, 'b');
    ASSERT_EQ(op.size(), 600u);
    const std::string out = chrome_trace_named(op);
    const std::string escaped = json_escape(op);
    EXPECT_EQ(occurrences(out, "\"name\":\"" + escaped + "\""), 2u)
        << "malloc and free";
    EXPECT_EQ(occurrences(out, "\"name\":\"write " + escaped + "\""),
              1u);
    EXPECT_EQ(occurrences(out, "\"name\":\"read " + escaped + "\""),
              1u);
    expect_objects_close(out);
}

TEST(ChromeTrace, QuotesAndBackslashesAreEscapedInEveryEvent)
{
    const std::string op = "say \"hi\" \\ to C:\\dir\\\"x\"";
    const std::string escaped =
        "say \\\"hi\\\" \\\\ to C:\\\\dir\\\\\\\"x\\\"";
    ASSERT_EQ(json_escape(op), escaped);
    const std::string out = chrome_trace_named(op);
    EXPECT_EQ(occurrences(out, "\"name\":\"" + escaped + "\""), 2u);
    EXPECT_EQ(occurrences(out, "write " + escaped + "\""), 1u);
    EXPECT_EQ(occurrences(out, "read " + escaped + "\""), 1u);
    expect_objects_close(out);
}

TEST(ChromeTrace, FileWriteAndBadPath)
{
    const std::string path =
        ::testing::TempDir() + "/pinpoint_chrome.json";
    write_chrome_trace_file(small_trace(), path);
    std::ifstream check(path);
    EXPECT_TRUE(check.good());
    EXPECT_THROW(
        write_chrome_trace_file(small_trace(), "/nonexistent/x.json"),
        Error);
}

}  // namespace
}  // namespace trace
}  // namespace pinpoint
