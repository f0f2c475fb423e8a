/**
 * @file
 * The strict CLI flag parser: regression tests for the three silent
 * failure modes of the old ad-hoc cursor — ignored unknown flags,
 * dangling value flags falling back to defaults, and std::stoll
 * accepting garbage — plus typed getters.
 */
#include <gtest/gtest.h>

#include "cli/flags.h"
#include "core/check.h"

namespace pinpoint {
namespace cli {
namespace {

std::vector<FlagSpec>
specs()
{
    return {
        {"batch", FlagKind::kValue, "N", "32", "batch size"},
        {"safety-factor", FlagKind::kValue, "F", "1.0", "headroom"},
        {"validate", FlagKind::kBool, "", "", "execute the plan"},
        {"csv", FlagKind::kValue, "PATH", "", "export"},
    };
}

TEST(ParseArgs, ValueAndBoolFlags)
{
    const ParsedArgs parsed = parse_args(
        specs(), {"--batch", "16", "--validate", "--csv", "out.csv"});
    EXPECT_EQ(parsed.value("batch", ""), "16");
    EXPECT_TRUE(parsed.flag("validate"));
    EXPECT_EQ(parsed.value("csv", ""), "out.csv");
    EXPECT_FALSE(parsed.has("safety-factor"));
}

TEST(ParseArgs, RetiredAliasSpellingsAreUnknownFlags)
{
    EXPECT_THROW(parse_args(specs(), {"--safety", "1.5"}), UsageError);
    EXPECT_THROW(parse_args(specs(), {"--aggressive"}), UsageError);
}

TEST(ParseArgs, RepeatedFlagKeepsTheLastValue)
{
    const ParsedArgs parsed =
        parse_args(specs(), {"--batch", "16", "--batch", "64"});
    EXPECT_EQ(parsed.value("batch", ""), "64");
}

TEST(ParseArgs, UnknownFlagIsAUsageError)
{
    // The old cursor silently ignored typos and ran the default.
    EXPECT_THROW(parse_args(specs(), {"--bogus", "1"}), UsageError);
    EXPECT_THROW(parse_args(specs(), {"--batc", "16"}), UsageError);
}

TEST(ParseArgs, PositionalTokenIsAUsageError)
{
    EXPECT_THROW(parse_args(specs(), {"16"}), UsageError);
}

TEST(ParseArgs, DanglingValueFlagIsAUsageError)
{
    // The old cursor fell back to the default when the value was
    // missing — both at the end of the line and before a flag.
    EXPECT_THROW(parse_args(specs(), {"--batch"}), UsageError);
    EXPECT_THROW(parse_args(specs(), {"--batch", "--validate"}),
                 UsageError);
}

TEST(ParseArgs, NegativeNumbersAreValuesNotFlags)
{
    const ParsedArgs parsed =
        parse_args(specs(), {"--batch", "-5"});
    EXPECT_EQ(parsed.int64_value("batch", 0), -5);
}

TEST(ParsedArgs, NumericGettersAreStrict)
{
    const ParsedArgs parsed = parse_args(
        specs(), {"--batch", "12abc", "--safety-factor", "fast"});
    EXPECT_THROW(parsed.int64_value("batch", 0), UsageError);
    EXPECT_THROW(parsed.int_value("batch", 0), UsageError);
    EXPECT_THROW(parsed.double_value("safety-factor", 0.0),
                 UsageError);
}

TEST(ParsedArgs, NumericGettersParseAndFallBack)
{
    const ParsedArgs parsed = parse_args(
        specs(), {"--batch", "64", "--safety-factor", "1.25"});
    EXPECT_EQ(parsed.int64_value("batch", 0), 64);
    EXPECT_EQ(parsed.int_value("batch", 0), 64);
    EXPECT_DOUBLE_EQ(parsed.double_value("safety-factor", 0.0),
                     1.25);
    EXPECT_EQ(parsed.int64_value("csv", 7), 7);
    EXPECT_EQ(parsed.raw("csv"), nullptr);
}

TEST(ParsedArgs, IntGetterRejectsOutOfRange)
{
    const ParsedArgs parsed =
        parse_args(specs(), {"--batch", "4294967296"});
    EXPECT_EQ(parsed.int64_value("batch", 0), 4294967296LL);
    EXPECT_THROW(parsed.int_value("batch", 0), UsageError);
}

}  // namespace
}  // namespace cli
}  // namespace pinpoint
