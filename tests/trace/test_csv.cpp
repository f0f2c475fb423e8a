/** @file Unit tests for CSV trace serialization. */
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "core/check.h"
#include "nn/model_registry.h"
#include "nn/models.h"
#include "runtime/session.h"
#include "trace/csv.h"

namespace pinpoint {
namespace trace {
namespace {

TraceRecorder
sample_trace()
{
    TraceRecorder r;
    MemoryEvent m;
    m.time = 100;
    m.kind = EventKind::kMalloc;
    m.block = 3;
    m.ptr = 0x7f0000000000ull;
    m.size = 4096;
    m.tensor = 9;
    m.category = Category::kParameter;
    m.iteration = 0;
    m.op_index = -1;
    m.op = r.intern("alloc.fc0.weight");
    r.record(m);

    MemoryEvent w = m;
    w.time = 250;
    w.kind = EventKind::kWrite;
    w.op_index = 2;
    w.op = r.intern("fc0.mat_mul");
    r.record(w);

    // Every kind and category name crosses the format at least once.
    MemoryEvent rd = m;
    rd.time = 400;
    rd.kind = EventKind::kRead;
    rd.category = Category::kInput;
    rd.op = r.intern("fc0.backward");
    r.record(rd);

    MemoryEvent f = m;
    f.time = 900;
    f.kind = EventKind::kFree;
    f.tensor = kInvalidTensor;
    f.category = Category::kIntermediate;
    f.op = r.intern("free.fc0.weight");
    r.record(f);
    return r;
}

TEST(TraceCsv, RoundTripsEveryField)
{
    const TraceRecorder original = sample_trace();
    std::stringstream ss;
    write_csv(original, ss);
    const TraceRecorder parsed = read_csv(ss);

    ASSERT_EQ(parsed.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        const auto &a = original.events()[i];
        const auto &b = parsed.events()[i];
        EXPECT_EQ(a.time, b.time);
        EXPECT_EQ(a.kind, b.kind);
        EXPECT_EQ(a.block, b.block);
        EXPECT_EQ(a.ptr, b.ptr);
        EXPECT_EQ(a.size, b.size);
        EXPECT_EQ(a.tensor, b.tensor);
        EXPECT_EQ(a.category, b.category);
        EXPECT_EQ(a.iteration, b.iteration);
        EXPECT_EQ(a.op_index, b.op_index);
        EXPECT_EQ(original.op_name(a.op), parsed.op_name(b.op));
    }
}

TEST(TraceCsv, HeaderIsStable)
{
    std::stringstream ss;
    write_csv(TraceRecorder(), ss);
    std::string header;
    std::getline(ss, header);
    EXPECT_EQ(header,
              "time_ns,kind,block,ptr,size,tensor,category,iteration,"
              "op_index,op");
}

TEST(TraceCsv, RejectsEmptyInput)
{
    std::stringstream ss;
    EXPECT_THROW(read_csv(ss), Error);
}

TEST(TraceCsv, RejectsBadHeader)
{
    std::stringstream ss("time,kind\n");
    EXPECT_THROW(read_csv(ss), Error);
}

TEST(TraceCsv, RejectsMalformedRows)
{
    std::stringstream missing(
        "time_ns,kind,block,ptr,size,tensor,category,iteration,"
        "op_index,op\n"
        "1,malloc,2,3\n");
    EXPECT_THROW(read_csv(missing), Error);

    std::stringstream garbage(
        "time_ns,kind,block,ptr,size,tensor,category,iteration,"
        "op_index,op\n"
        "abc,malloc,2,3,4,5,parameter,0,-1,x\n");
    EXPECT_THROW(read_csv(garbage), Error);

    std::stringstream bad_kind(
        "time_ns,kind,block,ptr,size,tensor,category,iteration,"
        "op_index,op\n"
        "1,munmap,2,3,4,5,parameter,0,-1,x\n");
    EXPECT_THROW(read_csv(bad_kind), Error);
}

/** @return the read_csv error for one data row, or "no error". */
std::string
csv_row_error(const std::string &row)
{
    std::stringstream ss(
        "time_ns,kind,block,ptr,size,tensor,category,iteration,"
        "op_index,op\n" +
        row + "\n");
    try {
        read_csv(ss);
    } catch (const Error &e) {
        return e.what();
    }
    return "no error";
}

TEST(TraceCsv, RejectsEveryMalformedNumber)
{
    EXPECT_EQ(csv_row_error("1,malloc,2,3,4,5,parameter,0,-1,x"),
              "no error");
    // One bad token per numeric field, each named in the error.
    const struct {
        const char *row;
        const char *field;
    } cases[] = {
        {"abc,malloc,2,3,4,5,parameter,0,-1,x", "time_ns 'abc'"},
        {"+1,malloc,2,3,4,5,parameter,0,-1,x", "time_ns '+1'"},
        {"1,malloc, 2,3,4,5,parameter,0,-1,x", "block ' 2'"},
        {"1,malloc,2,-3,4,5,parameter,0,-1,x", "ptr '-3'"},
        {"1,malloc,2,3,4 ,5,parameter,0,-1,x", "size '4 '"},
        {"1,malloc,2,3,4,12abc,parameter,0,-1,x", "tensor '12abc'"},
        {"1,malloc,2,3,4,5,parameter,4294967296,-1,x",
         "iteration '4294967296' out of range"},
        {"1,malloc,2,3,4,5,parameter,0,2147483648,x",
         "op_index '2147483648'"},
        {"18446744073709551616,malloc,2,3,4,5,parameter,0,-1,x",
         "time_ns '18446744073709551616'"},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.row);
        const std::string error = csv_row_error(c.row);
        EXPECT_NE(error.find("line 2"), std::string::npos) << error;
        EXPECT_NE(error.find(c.field), std::string::npos) << error;
    }
}

TEST(TraceCsv, RoundTripsExtremeValues)
{
    constexpr std::uint64_t kMax =
        std::numeric_limits<std::uint64_t>::max();
    TraceRecorder original;
    MemoryEvent first;
    first.time = 0;
    first.block = 0;
    first.ptr = 0;
    first.size = 0;
    first.tensor = 0;
    first.iteration = 0;
    first.op_index = std::numeric_limits<std::int32_t>::max();
    original.record(first);
    MemoryEvent last;
    last.time = kMax;
    last.kind = EventKind::kWrite;
    last.block = kMax;
    last.ptr = kMax;
    last.size = kMax;
    last.tensor = kInvalidTensor;
    last.category = Category::kInput;
    last.iteration = kSetupIteration;
    last.op_index = -1;
    last.op = original.intern("init.x");
    original.record(last);

    std::stringstream ss;
    write_csv(original, ss);
    EXPECT_NE(ss.str().find("\n18446744073709551615,write,"
                            "18446744073709551615,18446744073709551615,"
                            "18446744073709551615,-,input,4294967295,-1,"
                            "init.x\n"),
              std::string::npos)
        << ss.str();
    const TraceRecorder parsed = read_csv(ss);
    ASSERT_EQ(parsed.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        const auto &a = original.events()[i];
        const auto &b = parsed.events()[i];
        EXPECT_EQ(a.time, b.time);
        EXPECT_EQ(a.kind, b.kind);
        EXPECT_EQ(a.block, b.block);
        EXPECT_EQ(a.ptr, b.ptr);
        EXPECT_EQ(a.size, b.size);
        EXPECT_EQ(a.tensor, b.tensor);
        EXPECT_EQ(a.category, b.category);
        EXPECT_EQ(a.iteration, b.iteration);
        EXPECT_EQ(a.op_index, b.op_index);
        EXPECT_EQ(original.op_name(a.op), parsed.op_name(b.op));
    }
}

TEST(TraceCsv, RoundTripsAnOpNameLongerThanTheWriteBuffer)
{
    // The writer buffers 64 KiB at a time; a longer field is written
    // whole, between the buffered fields around it.
    TraceRecorder original = sample_trace();
    MemoryEvent e = original.events()[original.size() - 1];
    e.time += 1;
    e.kind = EventKind::kMalloc;
    e.block = 4;
    const std::string name(100000, 'n');
    e.op = original.intern(name);
    original.record(e);

    std::stringstream ss;
    write_csv(original, ss);
    const TraceRecorder parsed = read_csv(ss);
    ASSERT_EQ(parsed.size(), original.size());
    EXPECT_EQ(parsed.op_name(parsed.events()[original.size() - 1].op),
              name);
    EXPECT_EQ(parsed.events()[original.size() - 1].time, e.time);
    std::stringstream again;
    write_csv(parsed, again);
    EXPECT_EQ(again.str(), ss.str());
}

TEST(TraceCsv, NameErrorsReportTheLine)
{
    const std::string header =
        "time_ns,kind,block,ptr,size,tensor,category,iteration,"
        "op_index,op\n"
        "1,malloc,2,3,4,5,parameter,0,-1,x\n";
    const auto message = [](const std::string &text) {
        std::stringstream ss(text);
        try {
            read_csv(ss);
        } catch (const Error &e) {
            return std::string(e.what());
        }
        return std::string("no error");
    };
    const std::string kind =
        message(header + "2,munmap,2,3,4,5,parameter,0,-1,x\n");
    EXPECT_NE(kind.find("line 3"), std::string::npos) << kind;
    EXPECT_NE(kind.find("munmap"), std::string::npos) << kind;
    const std::string category =
        message(header + "2,free,2,3,4,5,weights,0,-1,x\n");
    EXPECT_NE(category.find("line 3"), std::string::npos) << category;
    EXPECT_NE(category.find("weights"), std::string::npos) << category;
}

TEST(TraceCsv, WriterBytesMatchTheGoldenTrace)
{
    // tests/trace/golden/mlp_b8_i2.csv pins the export format:
    // `pinpoint_cli characterize --model mlp --batch 8 --iterations 2
    // --csv` wrote it, and every writer must reproduce it exactly.
    runtime::SessionConfig config;
    config.batch = 8;
    config.iterations = 2;
    const auto result =
        runtime::run_training(nn::build_model("mlp"), config);
    std::ostringstream written;
    write_csv(result.trace, written);

    std::ifstream in(std::string(PINPOINT_SOURCE_DIR) +
                     "/tests/trace/golden/mlp_b8_i2.csv");
    ASSERT_TRUE(in.good());
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(written.str(), golden.str());

    // And the reader rebuilds the same trace from those bytes.
    std::istringstream is(golden.str());
    std::ostringstream rewritten;
    write_csv(read_csv(is), rewritten);
    EXPECT_EQ(rewritten.str(), golden.str());
}

TEST(TraceCsv, ToleratesCrLfAndBlankLines)
{
    std::stringstream ss(
        "time_ns,kind,block,ptr,size,tensor,category,iteration,"
        "op_index,op\r\n"
        "1,malloc,2,3,512,-,input,0,-1,alloc.x\r\n"
        "\n");
    const auto r = read_csv(ss);
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(r.events()[0].tensor, kInvalidTensor);
    EXPECT_EQ(r.events()[0].category, Category::kInput);
}

TEST(TraceCsv, FileRoundTripOfARealTrainingTrace)
{
    runtime::SessionConfig config;
    config.batch = 16;
    config.iterations = 2;
    const auto result = runtime::run_training(nn::mlp(), config);

    const std::string path =
        ::testing::TempDir() + "/pinpoint_trace.csv";
    write_csv_file(result.trace, path);
    const TraceRecorder parsed = read_csv_file(path);
    ASSERT_EQ(parsed.size(), result.trace.size());
    // Spot-check equality at both ends.
    EXPECT_EQ(parsed.op_name(parsed.events().front().op),
              result.trace.op_name(result.trace.events().front().op));
    EXPECT_EQ(parsed.events().back().time,
              result.trace.events().back().time);
}

TEST(TraceCsv, MissingFileThrows)
{
    EXPECT_THROW(read_csv_file("/nonexistent/trace.csv"), Error);
}

}  // namespace
}  // namespace trace
}  // namespace pinpoint
