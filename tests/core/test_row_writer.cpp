/** @file Unit tests for RowWriter and its integer formatting. */
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/row_writer.h"

namespace pinpoint {
namespace {

template <typename T>
std::string
reference(T value)
{
    char buf[32];
    char *end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
    return std::string(buf, end);
}

template <typename T>
std::string
formatted(T value)
{
    char buf[32];
    return std::string(buf, format_decimal(buf, value));
}

/** Expects format_decimal to write what std::to_chars writes. */
template <typename T>
void
expect_as_to_chars(T value)
{
    EXPECT_EQ(formatted(value), reference(value));
}

TEST(FormatDecimal, PowersOfTenAndTheirNeighbors)
{
    expect_as_to_chars(std::uint64_t{0});
    std::uint64_t p = 1;
    for (int k = 0; k < 20; ++k) {
        SCOPED_TRACE(k);
        expect_as_to_chars(p - 1);
        expect_as_to_chars(p);
        expect_as_to_chars(p + 1);
        if (p <= static_cast<std::uint64_t>(
                     std::numeric_limits<std::int64_t>::max())) {
            const auto s = static_cast<std::int64_t>(p);
            expect_as_to_chars(-s);
            expect_as_to_chars(-s + 1);
            expect_as_to_chars(-s - 1);
        }
        if (k < 19)
            p *= 10;
    }
}

TEST(FormatDecimal, TypeLimits)
{
    expect_as_to_chars(std::numeric_limits<std::uint32_t>::max());
    expect_as_to_chars(std::numeric_limits<std::uint64_t>::max());
    expect_as_to_chars(std::numeric_limits<std::int32_t>::min());
    expect_as_to_chars(std::numeric_limits<std::int32_t>::max());
    expect_as_to_chars(std::numeric_limits<std::int64_t>::min());
    expect_as_to_chars(std::numeric_limits<std::int64_t>::max());
    expect_as_to_chars(std::int32_t{-1});
    expect_as_to_chars(std::int64_t{-1});
    expect_as_to_chars(std::uint8_t{255});
    expect_as_to_chars(std::int16_t{-32768});
}

TEST(FormatDecimal, SeededRandomValuesOfEveryLength)
{
    std::mt19937_64 rng(42);
    for (int i = 0; i < 20000; ++i) {
        // A random bit length, so short values are as common as long.
        const std::uint64_t v = rng() >> (rng() % 64);
        expect_as_to_chars(v);
        expect_as_to_chars(static_cast<std::uint32_t>(v));
        expect_as_to_chars(static_cast<std::int64_t>(v));
        expect_as_to_chars(static_cast<std::int32_t>(v));
    }
}

TEST(RowWriter, RowsPastTheBufferGrowIt)
{
    std::ostringstream os;
    RowWriter w(os);
    w << std::string_view("head") << ',' << -12 << '\n';
    const std::string wide(200000, 'x');
    char *out = w.begin_row(wide.size() + RowWriter::kMaxInteger + 1);
    out = std::copy(wide.begin(), wide.end(), out);
    out = format_decimal(out, std::uint64_t{1234567890123});
    *out++ = '\n';
    w.end_row(out);
    w << 7u << '\n';
    w.flush();
    EXPECT_EQ(os.str(), "head,-12\n" + wide + "1234567890123\n7\n");
}

}  // namespace
}  // namespace pinpoint
