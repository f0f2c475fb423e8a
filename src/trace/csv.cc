#include "trace/csv.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <ostream>
#include <string_view>
#include <vector>

#include "core/check.h"
#include "core/parse.h"
#include "core/row_writer.h"
#include "core/types.h"
#include "trace/event.h"
#include "trace/recorder.h"

namespace pinpoint {
namespace trace {
namespace {

const char kHeader[] =
    "time_ns,kind,block,ptr,size,tensor,category,iteration,op_index,op";

/** A trace row has this many comma-separated fields. */
constexpr std::size_t kFields = 10;

/**
 * Splits one CSV line into @p fields, views into @p line; the op
 * field (last) may not contain commas.
 * @return the line's field count, which may exceed kFields (only
 * the first kFields are stored).
 */
std::size_t
split_line(std::string_view line,
           std::array<std::string_view, kFields> &fields)
{
    std::size_t n = 0;
    for (;;) {
        const std::size_t comma = line.find(',');
        if (n < kFields)
            fields[n] = line.substr(0, comma);
        ++n;
        if (comma == std::string_view::npos)
            return n;
        line.remove_prefix(comma + 1);
    }
}

/**
 * @return the enumerator among the first @p count whose @p name is
 * @p text.
 * @throws Error naming @p lineno and @p field otherwise.
 */
template <typename Enum, typename NameFn>
Enum
parse_name_field(std::string_view text, int count, NameFn name,
                 std::size_t lineno, const char *field)
{
    for (int k = 0; k < count; ++k)
        if (text == name(static_cast<Enum>(k)))
            return static_cast<Enum>(k);
    PP_CHECK(false, "line " << lineno << ": unknown " << field << " '"
                            << text << "'");
}

/**
 * Strict field parses (core/parse): the whole token must be a
 * number. std::stoull would accept "12abc" as 12 and wrap "-1"
 * to 2^64-1, so a corrupted trace row could round-trip as quietly
 * wrong data instead of failing the load.
 */
std::uint64_t
parse_u64_field(std::string_view text, std::size_t lineno,
                const char *field)
{
    std::uint64_t value = 0;
    PP_CHECK(parse_uint64(text, value),
             "line " << lineno << ": malformed " << field << " '"
                     << text << "'");
    return value;
}

std::uint32_t
parse_u32_field(std::string_view text, std::size_t lineno,
                const char *field)
{
    const std::uint64_t value = parse_u64_field(text, lineno, field);
    PP_CHECK(value <= 0xffffffffu,
             "line " << lineno << ": " << field << " '" << text
                     << "' out of range");
    return static_cast<std::uint32_t>(value);
}

std::int32_t
parse_i32_field(std::string_view text, std::size_t lineno,
                const char *field)
{
    int value = 0;
    PP_CHECK(parse_int(text, value),
             "line " << lineno << ": malformed " << field << " '"
                     << text << "'");
    return static_cast<std::int32_t>(value);
}

/** Copies @p s to @p out; @return the end. */
char *
put_text(char *out, std::string_view s)
{
    std::memcpy(out, s.data(), s.size());
    return out + s.size();
}

}  // namespace

void
write_csv(const TraceRecorder &recorder, std::ostream &os)
{
    std::array<std::string_view, kNumEventKinds> kinds;
    for (int k = 0; k < kNumEventKinds; ++k)
        kinds[k] = event_kind_name(static_cast<EventKind>(k));
    std::array<std::string_view, kNumCategories> categories;
    for (int k = 0; k < kNumCategories; ++k)
        categories[k] = category_name(static_cast<Category>(k));
    std::size_t longest_names = 0;
    for (std::string_view name : kinds)
        longest_names = std::max(longest_names, name.size());
    for (std::string_view name : categories)
        longest_names = std::max(longest_names, name.size());
    // Seven integers, the two names and ten separators, before the
    // op name.
    const std::size_t row_bytes =
        7 * RowWriter::kMaxInteger + 2 * longest_names + 10;

    const std::vector<std::string> &names = recorder.op_names();
    // Raw column pointers: the digits go out through a char pointer,
    // which may alias anything, so views would be reloaded per field.
    const EventColumns &c = recorder.columns();
    const TimeNs *time = c.time.data();
    const EventKind *kind = c.kind.data();
    const BlockId *block = c.block.data();
    const DevPtr *ptr = c.ptr.data();
    const std::size_t *size = c.size.data();
    const TensorId *tensor = c.tensor.data();
    const Category *category = c.category.data();
    const std::uint32_t *iteration = c.iteration.data();
    const std::int32_t *op_index = c.op_index.data();
    const OpId *op = c.op.data();
    const std::size_t rows = c.time.size();
    RowWriter w(os);
    w << kHeader << '\n';
    for (std::size_t i = 0; i < rows; ++i) {
        const std::string_view name = names[op[i]];
        char *out = w.begin_row(row_bytes + name.size());
        out = format_decimal(out, time[i]);
        *out++ = ',';
        out = put_text(out, kinds[static_cast<std::size_t>(kind[i])]);
        *out++ = ',';
        out = format_decimal(out, block[i]);
        *out++ = ',';
        out = format_decimal(out, ptr[i]);
        *out++ = ',';
        out = format_decimal(out, size[i]);
        *out++ = ',';
        if (tensor[i] == kInvalidTensor)
            *out++ = '-';
        else
            out = format_decimal(out, tensor[i]);
        *out++ = ',';
        out = put_text(
            out, categories[static_cast<std::size_t>(category[i])]);
        *out++ = ',';
        out = format_decimal(out, iteration[i]);
        *out++ = ',';
        out = format_decimal(out, op_index[i]);
        *out++ = ',';
        out = put_text(out, name);
        *out++ = '\n';
        w.end_row(out);
    }
    w.flush();
}

void
write_csv_file(const TraceRecorder &recorder, const std::string &path)
{
    std::ofstream os(path);
    PP_CHECK(os.good(), "cannot open '" << path << "' for writing");
    write_csv(recorder, os);
    PP_CHECK(os.good(), "write to '" << path << "' failed");
}

TraceRecorder
read_csv(std::istream &is)
{
    TraceRecorder recorder;
    std::string line;
    PP_CHECK(std::getline(is, line), "empty trace input");
    // Tolerate trailing \r from files written on other platforms.
    if (!line.empty() && line.back() == '\r')
        line.pop_back();
    PP_CHECK(line == kHeader,
             "unexpected trace header '" << line << "'");

    std::size_t lineno = 1;
    std::array<std::string_view, kFields> f;
    OpId op = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty())
            continue;
        const std::size_t fields = split_line(line, f);
        PP_CHECK(fields == kFields,
                 "line " << lineno << ": expected " << kFields
                         << " fields, got " << fields);
        MemoryEvent e;
        e.time = parse_u64_field(f[0], lineno, "time_ns");
        e.kind = parse_name_field<EventKind>(f[1], kNumEventKinds,
                                             event_kind_name,
                                             lineno, "kind");
        e.block = parse_u64_field(f[2], lineno, "block");
        e.ptr = parse_u64_field(f[3], lineno, "ptr");
        e.size = parse_u64_field(f[4], lineno, "size");
        e.tensor = f[5] == "-"
                       ? kInvalidTensor
                       : parse_u64_field(f[5], lineno, "tensor");
        e.category = parse_name_field<Category>(
            f[6], kNumCategories, category_name, lineno, "category");
        e.iteration = parse_u32_field(f[7], lineno, "iteration");
        e.op_index = parse_i32_field(f[8], lineno, "op_index");
        // Runs of rows share their op (an op's reads, writes and
        // frees follow one another): intern only a new name.
        if (f[9] != recorder.op_name(op))
            op = recorder.intern(f[9]);
        e.op = op;
        recorder.record(e);
    }
    return recorder;
}

TraceRecorder
read_csv_file(const std::string &path)
{
    std::ifstream is(path);
    PP_CHECK(is.good(), "cannot open '" << path << "' for reading");
    return read_csv(is);
}

}  // namespace trace
}  // namespace pinpoint
