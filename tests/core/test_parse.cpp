/** @file Unit tests for the strict whole-token number parses. */
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "core/parse.h"

namespace pinpoint {
namespace {

TEST(Parse, IntegersTakeWholeTokens)
{
    std::uint64_t u = 0;
    EXPECT_TRUE(parse_uint64("18446744073709551615", u));
    EXPECT_EQ(u, std::numeric_limits<std::uint64_t>::max());
    EXPECT_TRUE(parse_uint64("007", u));
    EXPECT_EQ(u, 7u);

    std::int64_t s = 0;
    EXPECT_TRUE(parse_int64("-9223372036854775808", s));
    EXPECT_EQ(s, std::numeric_limits<std::int64_t>::min());

    int i = 0;
    EXPECT_TRUE(parse_int("-1", i));
    EXPECT_EQ(i, -1);
    EXPECT_TRUE(parse_int("2147483647", i));
    EXPECT_EQ(i, 2147483647);
}

TEST(Parse, RejectsMalformedIntegersAndKeepsTheOutput)
{
    // The field values of the malformed trace rows, and every
    // whole-token rule: no sign but a leading '-' on signed values,
    // no space on either side, nothing after the digits, in range.
    for (const char *bad :
         {"", "abc", "12abc", "1e3", "0x10", " 5", "5 ", "+5", "-",
          "1,2", "1.0"}) {
        SCOPED_TRACE(bad);
        std::uint64_t u = 42;
        std::int64_t s = 42;
        int i = 42;
        EXPECT_FALSE(parse_uint64(bad, u));
        EXPECT_FALSE(parse_int64(bad, s));
        EXPECT_FALSE(parse_int(bad, i));
        EXPECT_EQ(u, 42u);
        EXPECT_EQ(s, 42);
        EXPECT_EQ(i, 42);
    }
    std::uint64_t u = 42;
    EXPECT_FALSE(parse_uint64("-1", u));
    EXPECT_FALSE(parse_uint64("-0", u));
    EXPECT_FALSE(parse_uint64("18446744073709551616", u));
    EXPECT_EQ(u, 42u);
    std::int64_t s = 42;
    EXPECT_FALSE(parse_int64("9223372036854775808", s));
    int i = 42;
    EXPECT_FALSE(parse_int("2147483648", i));
    EXPECT_FALSE(parse_int("-2147483649", i));
    EXPECT_EQ(i, 42);
}

TEST(Parse, ReadsAViewWithoutItsTerminator)
{
    // A CSV field is a view into its line: the parse stops at the
    // view's end, not at the next NUL.
    const std::string line = "123,-45,6x";
    const std::string_view all(line);
    std::uint64_t u = 0;
    EXPECT_TRUE(parse_uint64(all.substr(0, 3), u));
    EXPECT_EQ(u, 123u);
    int i = 0;
    EXPECT_TRUE(parse_int(all.substr(4, 3), i));
    EXPECT_EQ(i, -45);
    EXPECT_TRUE(parse_uint64(all.substr(8, 1), u));
    EXPECT_EQ(u, 6u);
    EXPECT_FALSE(parse_uint64(all.substr(8, 2), u));
    EXPECT_FALSE(parse_uint64(all.substr(3, 0), u));
}

}  // namespace
}  // namespace pinpoint
