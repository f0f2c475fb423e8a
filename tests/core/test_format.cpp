/** @file Unit tests for formatting helpers. */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "core/format.h"

namespace pinpoint {
namespace {

TEST(FormatBytes, PlainBytes)
{
    EXPECT_EQ(format_bytes(0), "0 B");
    EXPECT_EQ(format_bytes(512), "512 B");
    EXPECT_EQ(format_bytes(1023), "1023 B");
}

TEST(FormatBytes, KbMbGb)
{
    EXPECT_EQ(format_bytes(1024), "1.0 KB");
    EXPECT_EQ(format_bytes(1536), "1.5 KB");
    EXPECT_EQ(format_bytes(1024ull * 1024), "1.0 MB");
    EXPECT_EQ(format_bytes(1200ull * 1024 * 1024), "1.17 GB");
}

TEST(FormatTime, MicrosecondRange)
{
    EXPECT_EQ(format_time(25 * kNsPerUs), "25.0 us");
    EXPECT_EQ(format_time(1500), "1.50 us");
}

TEST(FormatTime, MillisecondAndSecondRange)
{
    EXPECT_EQ(format_time(840211 * kNsPerUs), "840.2 ms");
    EXPECT_EQ(format_time(2 * kNsPerSec), "2.000 s");
}

TEST(ToUs, ConvertsExactly)
{
    EXPECT_DOUBLE_EQ(to_us(25000), 25.0);
}

TEST(FormatPercent, OneDecimal)
{
    EXPECT_EQ(format_percent(0.423), "42.3%");
    EXPECT_EQ(format_percent(1.0), "100.0%");
    EXPECT_EQ(format_percent(0.0), "0.0%");
}

/** The reference format_fixed6 must reproduce byte for byte. */
std::string
printf_fixed6(double value)
{
    char buf[400];
    std::snprintf(buf, sizeof buf, "%.6f", value);
    return buf;
}

TEST(FormatFixed6, MatchesPrintfByteForByte)
{
    std::vector<double> values = {
        0.0, -0.0, 1.0, 0.25, 1e-7, 5e-7, 0.0000005, 1153.7,
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::max(),
        -std::numeric_limits<double>::max(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()};
    // Exact halfway cases at the sixth decimal (k / 2^7 ends in 5 at
    // the seventh), where the rounding rule shows.
    for (int k = -300; k < 300; ++k)
        values.push_back(k / 128.0);
    std::mt19937_64 rng(6);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t bits = rng();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof v);
        values.push_back(v);
        values.push_back(std::ldexp(static_cast<double>(rng() >> 11),
                                    -static_cast<int>(rng() % 80)));
    }
    for (double v : values)
        ASSERT_EQ(format_fixed6(v), printf_fixed6(v)) << v;
}

TEST(Pad, PadsAndPreservesLongStrings)
{
    EXPECT_EQ(pad("ab", 4), "ab  ");
    EXPECT_EQ(pad("abcdef", 4), "abcdef");
}

}  // namespace
}  // namespace pinpoint
