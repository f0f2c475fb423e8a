/** @file Unit tests for descriptive statistics. */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "analysis/stats.h"
#include "core/check.h"

namespace pinpoint {
namespace analysis {
namespace {

TEST(Summarize, KnownSample)
{
    const auto s = summarize({4.0, 1.0, 3.0, 2.0, 5.0});
    EXPECT_EQ(s.count, 5u);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 5.0);
    EXPECT_DOUBLE_EQ(s.mean, 3.0);
    EXPECT_DOUBLE_EQ(s.median, 3.0);
    EXPECT_DOUBLE_EQ(s.p25, 2.0);
    EXPECT_DOUBLE_EQ(s.p75, 4.0);
    EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
}

TEST(Summarize, EmptyAndSingleton)
{
    EXPECT_EQ(summarize({}).count, 0u);
    const auto s = summarize({7.5});
    EXPECT_EQ(s.count, 1u);
    EXPECT_DOUBLE_EQ(s.median, 7.5);
    EXPECT_DOUBLE_EQ(s.stddev, 0.0);
    EXPECT_DOUBLE_EQ(s.p99, 7.5);
}

TEST(SelectQuantiles, MatchesSummarizeBitForBit)
{
    // Odd and even counts from 1 up, samples with few distinct
    // values (long runs of ties) and with many.
    std::mt19937_64 rng(0x5e1ec7);
    for (int round = 0; round < 400; ++round) {
        const std::size_t n = 1 + rng() % 65;
        const std::uint64_t distinct = round % 2 ? 1 + rng() % 4 : 1u << 30;
        std::vector<double> values;
        for (std::size_t i = 0; i < n; ++i)
            values.push_back(static_cast<double>(rng() % distinct) / 7.0);
        SCOPED_TRACE(::testing::Message() << "round " << round << ", n "
                                          << n);
        const SummaryStats want = summarize(values);
        const std::vector<double> got = select_quantiles(
            values, {0.0, 0.25, 0.5, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0});
        ASSERT_EQ(got.size(), 9u);
        EXPECT_EQ(got[0], want.min);
        EXPECT_EQ(got[1], want.p25);
        EXPECT_EQ(got[2], want.median);
        EXPECT_EQ(got[3], want.median);
        EXPECT_EQ(got[4], want.p75);
        EXPECT_EQ(got[5], want.p90);
        EXPECT_EQ(got[6], want.p95);
        EXPECT_EQ(got[7], want.p99);
        EXPECT_EQ(got[8], want.max);
        // Selection only reorders the sample.
        EXPECT_EQ(summarize(values).mean, want.mean);
    }
}

TEST(SelectQuantiles, RejectsEmptySamplesAndDescendingP)
{
    std::vector<double> empty;
    EXPECT_THROW(select_quantiles(empty, {0.5}), Error);
    std::vector<double> values = {3.0, 1.0, 2.0, 5.0, 4.0};
    EXPECT_THROW(select_quantiles(values, {0.9, 0.1}), Error);
    EXPECT_THROW(select_quantiles(values, {1.5}), Error);
}

TEST(Cdf, FractionBelowCountsInclusive)
{
    Cdf cdf({1.0, 2.0, 2.0, 3.0});
    EXPECT_DOUBLE_EQ(cdf.fraction_below(0.5), 0.0);
    EXPECT_DOUBLE_EQ(cdf.fraction_below(1.0), 0.25);
    EXPECT_DOUBLE_EQ(cdf.fraction_below(2.0), 0.75);
    EXPECT_DOUBLE_EQ(cdf.fraction_below(10.0), 1.0);
}

TEST(Cdf, PercentileInterpolatesLinearly)
{
    Cdf cdf({0.0, 10.0});
    EXPECT_DOUBLE_EQ(cdf.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(cdf.percentile(0.5), 5.0);
    EXPECT_DOUBLE_EQ(cdf.percentile(0.9), 9.0);
    EXPECT_DOUBLE_EQ(cdf.percentile(1.0), 10.0);
}

TEST(Cdf, PercentileAndFractionAreConsistent)
{
    std::vector<double> v;
    for (int i = 0; i < 101; ++i)
        v.push_back(static_cast<double>(i));
    Cdf cdf(v);
    const double p90 = cdf.percentile(0.90);
    EXPECT_NEAR(cdf.fraction_below(p90), 0.90, 0.02);
}

TEST(Cdf, RejectsEmpty)
{
    EXPECT_THROW(Cdf({}), Error);
    EXPECT_THROW(Cdf({1.0}).percentile(1.5), Error);
}

TEST(Kde, DensityIntegratesToOne)
{
    const auto pts = kernel_density({5.0, 6.0, 7.0, 8.0, 20.0}, 256);
    double integral = 0.0;
    for (std::size_t i = 1; i < pts.size(); ++i) {
        integral += 0.5 * (pts[i].density + pts[i - 1].density) *
                    (pts[i].x - pts[i - 1].x);
    }
    EXPECT_NEAR(integral, 1.0, 0.02);
}

TEST(Kde, PeaksNearTheMass)
{
    std::vector<double> v(100, 10.0);
    v.push_back(100.0);
    const auto pts = kernel_density(v, 128);
    double best_x = 0.0;
    double best_d = -1.0;
    for (const auto &p : pts) {
        if (p.density > best_d) {
            best_d = p.density;
            best_x = p.x;
        }
    }
    EXPECT_NEAR(best_x, 10.0, 5.0);
}

TEST(Kde, DegenerateSampleDoesNotBlowUp)
{
    const auto pts = kernel_density({3.0, 3.0, 3.0}, 16);
    for (const auto &p : pts) {
        EXPECT_TRUE(std::isfinite(p.density));
        EXPECT_GE(p.density, 0.0);
    }
}

TEST(Kde, ValidatesArguments)
{
    EXPECT_THROW(kernel_density({}, 16), Error);
    EXPECT_THROW(kernel_density({1.0}, 1), Error);
}

TEST(Violin, CombinesSummaryAndDensity)
{
    const auto v = violin({1.0, 2.0, 3.0}, 16);
    EXPECT_EQ(v.summary.count, 3u);
    EXPECT_EQ(v.density.size(), 16u);
}

}  // namespace
}  // namespace analysis
}  // namespace pinpoint
