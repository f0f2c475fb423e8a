#include "analysis/stats.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"

namespace pinpoint {
namespace analysis {
namespace {

/** Linear-interpolated quantile of a sorted sample. */
double
quantile_sorted(const std::vector<double> &sorted, double p)
{
    const QuantilePos q(sorted.size(), p);
    if (sorted.size() == 1)
        return sorted[0];
    return q.at(sorted[q.lo], sorted[q.hi]);
}

}  // namespace

QuantilePos::QuantilePos(std::size_t n, double p)
{
    PP_CHECK(n > 0, "quantile of an empty sample");
    PP_CHECK(p >= 0.0 && p <= 1.0, "quantile p out of [0,1]: " << p);
    const double pos = p * static_cast<double>(n - 1);
    lo = static_cast<std::size_t>(pos);
    hi = std::min(lo + 1, n - 1);
    frac = pos - static_cast<double>(lo);
}

SummaryStats
summarize(std::vector<double> values)
{
    SummaryStats s;
    if (values.empty())
        return s;
    std::sort(values.begin(), values.end());
    s.count = values.size();
    s.min = values.front();
    s.max = values.back();
    double sum = 0.0;
    for (double v : values)
        sum += v;
    s.mean = sum / static_cast<double>(values.size());
    double var = 0.0;
    for (double v : values)
        var += (v - s.mean) * (v - s.mean);
    s.stddev = values.size() > 1
                   ? std::sqrt(var / static_cast<double>(values.size() - 1))
                   : 0.0;
    s.median = quantile_sorted(values, 0.5);
    s.p25 = quantile_sorted(values, 0.25);
    s.p75 = quantile_sorted(values, 0.75);
    s.p90 = quantile_sorted(values, 0.90);
    s.p95 = quantile_sorted(values, 0.95);
    s.p99 = quantile_sorted(values, 0.99);
    return s;
}

std::vector<double>
select_quantiles(std::vector<double> &values,
                 std::initializer_list<double> ps)
{
    std::vector<double> out;
    out.reserve(ps.size());
    // values[0, placed) are the placed smallest elements, in no
    // particular order: nothing from placed on is smaller.
    std::size_t placed = 0;
    for (double p : ps) {
        const QuantilePos q(values.size(), p);
        PP_CHECK(q.lo + 1 >= placed,
                 "select_quantiles needs ascending p, got " << p);
        if (values.size() == 1) {
            out.push_back(values[0]);
            continue;
        }
        const auto lo = values.begin() + static_cast<std::ptrdiff_t>(q.lo);
        if (q.lo >= placed) {
            std::nth_element(values.begin() +
                                 static_cast<std::ptrdiff_t>(placed),
                             lo, values.end());
            placed = q.lo + 1;
        }
        // Everything above the lo-th statistic is no smaller than
        // it, so the hi-th is their minimum.
        const double b =
            q.hi == q.lo ? *lo : *std::min_element(lo + 1, values.end());
        out.push_back(q.at(*lo, b));
    }
    return out;
}

Cdf::Cdf(std::vector<double> values)
    : sorted_(std::move(values))
{
    PP_CHECK(!sorted_.empty(), "CDF of an empty sample");
    std::sort(sorted_.begin(), sorted_.end());
}

double
Cdf::fraction_below(double x) const
{
    const auto it =
        std::upper_bound(sorted_.begin(), sorted_.end(), x);
    return static_cast<double>(it - sorted_.begin()) /
           static_cast<double>(sorted_.size());
}

double
Cdf::percentile(double p) const
{
    return quantile_sorted(sorted_, p);
}

std::vector<KdePoint>
kernel_density(const std::vector<double> &values, int points)
{
    PP_CHECK(!values.empty(), "KDE of an empty sample");
    PP_CHECK(points >= 2, "KDE needs at least 2 evaluation points");

    const auto [mn_it, mx_it] =
        std::minmax_element(values.begin(), values.end());
    const double mn = *mn_it;
    const double mx = *mx_it;

    // Silverman's rule of thumb.
    double mean = 0.0;
    for (double v : values)
        mean += v;
    mean /= static_cast<double>(values.size());
    double var = 0.0;
    for (double v : values)
        var += (v - mean) * (v - mean);
    const double sd =
        values.size() > 1
            ? std::sqrt(var / static_cast<double>(values.size() - 1))
            : 0.0;
    double h =
        1.06 * sd * std::pow(static_cast<double>(values.size()), -0.2);
    if (h <= 0.0)
        h = std::max(1.0, std::abs(mn) * 0.01);  // degenerate sample

    const double lo = mn - 3.0 * h;
    const double hi = mx + 3.0 * h;
    const double step = (hi - lo) / static_cast<double>(points - 1);
    const double norm =
        1.0 / (static_cast<double>(values.size()) * h *
               std::sqrt(2.0 * M_PI));

    std::vector<KdePoint> out;
    out.reserve(static_cast<std::size_t>(points));
    for (int i = 0; i < points; ++i) {
        const double x = lo + step * static_cast<double>(i);
        double d = 0.0;
        for (double v : values) {
            const double z = (x - v) / h;
            d += std::exp(-0.5 * z * z);
        }
        out.push_back({x, d * norm});
    }
    return out;
}

ViolinStats
violin(const std::vector<double> &values, int points)
{
    ViolinStats v;
    v.summary = summarize(values);
    v.density = kernel_density(values, points);
    return v;
}

}  // namespace analysis
}  // namespace pinpoint
