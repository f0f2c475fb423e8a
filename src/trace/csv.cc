#include "trace/csv.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <ostream>
#include <sstream>
#include <vector>

#include "core/check.h"
#include "core/parse.h"
#include "core/types.h"
#include "trace/event.h"
#include "trace/recorder.h"

namespace pinpoint {
namespace trace {
namespace {

const char kHeader[] =
    "time_ns,kind,block,ptr,size,tensor,category,iteration,op_index,op";

/**
 * Splits one CSV line into @p fields; the op field (last) may not
 * contain commas. @p fields is reused from line to line, so steady-
 * state splitting allocates nothing.
 */
void
split_line(const std::string &line, std::vector<std::string> &fields)
{
    std::size_t n = 0;
    std::size_t start = 0;
    for (;;) {
        const std::size_t comma = line.find(',', start);
        const std::size_t end =
            comma == std::string::npos ? line.size() : comma;
        if (n == fields.size())
            fields.emplace_back();
        fields[n++].assign(line, start, end - start);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    fields.resize(n);
}

/**
 * @return the enumerator among the first @p count whose @p name is
 * @p text.
 * @throws Error naming @p lineno and @p field otherwise.
 */
template <typename Enum, typename NameFn>
Enum
parse_name_field(const std::string &text, int count, NameFn name,
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
parse_u64_field(const std::string &text, std::size_t lineno,
                const char *field)
{
    std::uint64_t value = 0;
    PP_CHECK(parse_uint64(text, value),
             "line " << lineno << ": malformed " << field << " '"
                     << text << "'");
    return value;
}

std::uint32_t
parse_u32_field(const std::string &text, std::size_t lineno,
                const char *field)
{
    const std::uint64_t value = parse_u64_field(text, lineno, field);
    PP_CHECK(value <= 0xffffffffu,
             "line " << lineno << ": " << field << " '" << text
                     << "' out of range");
    return static_cast<std::uint32_t>(value);
}

std::int32_t
parse_i32_field(const std::string &text, std::size_t lineno,
                const char *field)
{
    int value = 0;
    PP_CHECK(parse_int(text, value),
             "line " << lineno << ": malformed " << field << " '"
                     << text << "'");
    return static_cast<std::int32_t>(value);
}

/**
 * Row formatter: fields are formatted with std::to_chars straight
 * into one buffer, and the buffer reaches the stream in large
 * chunks, not one insertion per field.
 */
class RowWriter
{
  public:
    explicit RowWriter(std::ostream &os) : os_(os), buf_(1 << 16)
    {
        pos_ = buf_.data();
    }

    /** Makes room for a row of up to @p bytes. */
    void
    reserve(std::size_t bytes)
    {
        if (static_cast<std::size_t>(buf_.data() + buf_.size() - pos_) >=
            bytes)
            return;
        flush();
        if (buf_.size() < bytes) {
            buf_.resize(bytes);  // a row longer than the buffer
            pos_ = buf_.data();
        }
    }

    template <typename T>
    void
    num(T value)
    {
        pos_ = std::to_chars(pos_, buf_.data() + buf_.size(), value).ptr;
    }

    void
    text(const std::string &s)
    {
        pos_ = std::copy(s.begin(), s.end(), pos_);
    }

    void
    text(const char *s)
    {
        while (*s)
            *pos_++ = *s++;
    }

    void put(char c) { *pos_++ = c; }

    void
    flush()
    {
        os_.write(buf_.data(), pos_ - buf_.data());
        pos_ = buf_.data();
    }

  private:
    std::ostream &os_;
    std::vector<char> buf_;
    char *pos_ = nullptr;
};

/**
 * Longest row without its op name: eight numbers of at most 20
 * characters, the kind and category names, ten separators.
 */
constexpr std::size_t kMaxFixedRow = 8 * 20 + 2 * 16 + 10;

}  // namespace

void
write_csv(const TraceRecorder &recorder, std::ostream &os)
{
    const std::vector<std::string> &names = recorder.op_names();
    RowWriter w(os);
    w.reserve(sizeof kHeader);
    w.text(kHeader);
    w.put('\n');
    for (const auto &e : recorder.events()) {
        const std::string &op = names[e.op];
        w.reserve(kMaxFixedRow + op.size());
        w.num(e.time);
        w.put(',');
        w.text(event_kind_name(e.kind));
        w.put(',');
        w.num(e.block);
        w.put(',');
        w.num(e.ptr);
        w.put(',');
        w.num(e.size);
        w.put(',');
        if (e.tensor == kInvalidTensor)
            w.put('-');
        else
            w.num(e.tensor);
        w.put(',');
        w.text(category_name(e.category));
        w.put(',');
        w.num(e.iteration);
        w.put(',');
        w.num(e.op_index);
        w.put(',');
        w.text(op);
        w.put('\n');
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
    std::vector<std::string> f;
    while (std::getline(is, line)) {
        ++lineno;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty())
            continue;
        split_line(line, f);
        PP_CHECK(f.size() == 10,
                 "line " << lineno << ": expected 10 fields, got "
                         << f.size());
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
        e.op = recorder.intern(f[9]);
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
