/**
 * @file
 * Descriptive statistics used by the figures: summary stats,
 * empirical CDF (Fig. 3a), kernel density / violin (Fig. 3b),
 * and histograms.
 */
#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace pinpoint {
namespace analysis {

/** Order statistics + moments of a sample. */
struct SummaryStats {
    std::size_t count = 0;
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;
    double stddev = 0.0;
    double median = 0.0;
    double p25 = 0.0;
    double p75 = 0.0;
    double p90 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
};

/**
 * Where the p-quantile of n order statistics falls: between the
 * lo-th and hi-th (0-based), frac of the way. The one place every
 * quantile here derives it, so they agree bit for bit.
 */
struct QuantilePos {
    std::size_t lo = 0;
    std::size_t hi = 0;
    double frac = 0.0;

    /** @throws Error when @p n is 0 or @p p is outside [0, 1]. */
    QuantilePos(std::size_t n, double p);

    /** @return the quantile from the lo-th and hi-th statistics. */
    double
    at(double a, double b) const
    {
        return a * (1.0 - frac) + b * frac;
    }
};

/** @return summary statistics of @p values (may be unsorted). */
SummaryStats summarize(std::vector<double> values);

/**
 * @return the quantiles of @p values at the ascending probabilities
 * @p ps, each bit-identical to summarize()'s (linear interpolation
 * between the order statistics around p * (n - 1)), found by
 * selection instead of a full sort: one std::nth_element per
 * quantile over the part of @p values the previous one left above
 * it, plus a min over that part. Reorders @p values.
 * @throws Error when @p values is empty or a p is outside [0, 1]
 * or below its predecessor.
 */
std::vector<double> select_quantiles(std::vector<double> &values,
                                     std::initializer_list<double> ps);

/**
 * Empirical cumulative distribution function over a sample, the form
 * of the paper's Fig. 3a.
 */
class Cdf
{
  public:
    /** Builds from @p values. @throws Error when empty. */
    explicit Cdf(std::vector<double> values);

    /** @return P(X <= x) in [0, 1]. */
    double fraction_below(double x) const;

    /**
     * @return the @p p-quantile (p in [0, 1]) with linear
     * interpolation between order statistics.
     */
    double percentile(double p) const;

  private:
    std::vector<double> sorted_;
};

/** One evaluation point of a kernel density estimate. */
struct KdePoint {
    double x = 0.0;
    double density = 0.0;
};

/**
 * Gaussian kernel density estimate over @p values at @p points
 * evenly spaced sample positions, with Silverman's rule-of-thumb
 * bandwidth.
 */
std::vector<KdePoint> kernel_density(const std::vector<double> &values,
                                     int points = 64);

/** The data behind one violin of the paper's Fig. 3b. */
struct ViolinStats {
    SummaryStats summary;
    std::vector<KdePoint> density;
};

/** Builds violin statistics (summary + KDE) for @p values. */
ViolinStats violin(const std::vector<double> &values, int points = 64);

}  // namespace analysis
}  // namespace pinpoint

