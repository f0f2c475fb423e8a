/** @file Tests for the composite characterization report. */
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/ati.h"
#include "analysis/outliers.h"
#include "analysis/report.h"
#include "analysis/stats.h"
#include "analysis/swap_model.h"
#include "analysis/trace_view.h"
#include "core/check.h"
#include "core/format.h"
#include "core/types.h"
#include "nn/models.h"
#include "runtime/session.h"
#include "support/random_trace.h"

namespace pinpoint {
namespace analysis {
namespace {

runtime::SessionResult
mlp_run()
{
    runtime::SessionConfig config;
    config.batch = 32;
    config.iterations = 5;
    return runtime::run_training(nn::mlp(), config);
}

TEST(Report, ContainsEverySection)
{
    const auto result = mlp_run();
    ReportOptions opts;
    opts.title = "unit-test run";
    const std::string report = report_string(result.view(), opts);

    EXPECT_NE(report.find("unit-test run"), std::string::npos);
    EXPECT_NE(report.find("iterative pattern"), std::string::npos);
    EXPECT_NE(report.find("access time intervals"),
              std::string::npos);
    EXPECT_NE(report.find("occupation breakdown"), std::string::npos);
    EXPECT_NE(report.find("block lifetimes"), std::string::npos);
    EXPECT_NE(report.find("swap advice"), std::string::npos);
    EXPECT_NE(report.find("gantt"), std::string::npos);
}

TEST(Report, GanttSectionIsOptional)
{
    const auto result = mlp_run();
    ReportOptions opts;
    opts.gantt = false;
    const std::string report = report_string(result.view(), opts);
    EXPECT_EQ(report.find("== gantt"), std::string::npos);
}

TEST(Report, ReportsPerfectIterationStability)
{
    const auto result = mlp_run();
    const std::string report = report_string(result.view());
    EXPECT_NE(report.find("identical: 100.0% of 5 iterations"),
              std::string::npos)
        << report;
}

TEST(Report, FindsTheStagedOutlier)
{
    runtime::SessionConfig config;
    config.batch = 32;
    config.iterations = 61;
    config.engine.staging_buffer_bytes = 700ull * 1024 * 1024;
    config.engine.iterations_per_epoch = 30;
    const auto result = runtime::run_training(nn::mlp(), config);

    ReportOptions opts;
    opts.gantt = false;
    const std::string report = report_string(result.view(), opts);
    // Epoch gaps here are ~ms-scale; the paper-threshold section
    // reports either way — just require the section rendered with a
    // definite verdict.
    const bool has_verdict =
        report.find("outlier behaviors; largest") !=
            std::string::npos ||
        report.find("no huge-ATI/huge-size outliers") !=
            std::string::npos;
    EXPECT_TRUE(has_verdict) << report;
}

/** @return the body of the report section titled @p title. */
std::string
section(const std::string &report, const std::string &title)
{
    const std::string head = "\n== " + title + " ==\n";
    const std::size_t from = report.find(head);
    if (from == std::string::npos)
        return "missing section " + title;
    const std::size_t body = from + head.size();
    return report.substr(body, report.find("\n== ", body) - body);
}

/**
 * The ATI section as built from every sample: summarize() over
 * compute_atis(), the sample-by-sample path.
 */
std::string
oracle_ati_section(const TraceView &view, const LinkBandwidth &link)
{
    const auto atis = compute_atis(view);
    if (atis.empty())
        return "no ATI samples (trace too short)\n";
    const SummaryStats s = summarize(ati_microseconds(atis));
    std::ostringstream os;
    os << s.count << " samples: median "
       << format_time(static_cast<TimeNs>(s.median * kNsPerUs))
       << ", p90 " << format_time(static_cast<TimeNs>(s.p90 * kNsPerUs))
       << ", max " << format_time(static_cast<TimeNs>(s.max * kNsPerUs))
       << "\n";
    const double hideable = max_swap_bytes(
        static_cast<TimeNs>(s.median * kNsPerUs), link);
    os << "a median gap hides only "
       << format_bytes(static_cast<std::size_t>(hideable))
       << " of swap traffic (Eq. 1)\n";
    return os.str();
}

/** The outlier section from sift_outliers over every sample. */
std::string
oracle_outlier_section(const TraceView &view, const LinkBandwidth &link)
{
    const auto outliers =
        sift_outliers(compute_atis(view), OutlierCriteria{});
    if (outliers.empty())
        return "no huge-ATI/huge-size outliers at the paper's "
               "thresholds (>0.8 s, >600 MB)\n";
    const auto ranked = rank_swap_candidates(outliers, link);
    std::ostringstream os;
    os << ranked.size() << " outlier behaviors; largest: block "
       << ranked.front().sample.block << " ("
       << format_bytes(ranked.front().sample.size) << ", ATI "
       << format_time(ranked.front().sample.interval) << ") — "
       << (ranked.front().swappable ? "swappable for free"
                                    : "not hideable")
       << "\n";
    return os.str();
}

/**
 * Expects @p r's report to print the oracle ATI and outlier
 * sections, and the view walk to sift the same outliers, in the
 * same order, as sifting every sample.
 */
void
expect_report_matches_oracle(const trace::TraceRecorder &r)
{
    const TraceView view(r);
    ReportOptions opts;
    opts.gantt = false;
    const std::string report = report_string(view, opts);
    EXPECT_EQ(section(report, "access time intervals (Fig. 3)"),
              oracle_ati_section(view, opts.link));
    EXPECT_EQ(section(report, "outliers & swap advice (Fig. 4, Eq. 1)"),
              oracle_outlier_section(view, opts.link));

    const auto want = sift_outliers(compute_atis(view), OutlierCriteria{});
    const auto got = sift_outliers(view, OutlierCriteria{});
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].behavior_index, want[i].behavior_index);
        EXPECT_EQ(got[i].block, want[i].block);
        EXPECT_EQ(got[i].size, want[i].size);
        EXPECT_EQ(got[i].interval, want[i].interval);
        EXPECT_EQ(got[i].at_time, want[i].at_time);
        EXPECT_EQ(got[i].category, want[i].category);
        EXPECT_EQ(got[i].op, want[i].op);
    }
}

constexpr std::size_t kMB = 1024 * 1024;
constexpr TimeNs kSecond = 1000 * kNsPerMs;

trace::MemoryEvent
event(TimeNs t, trace::EventKind kind, BlockId block, std::size_t size)
{
    trace::MemoryEvent e;
    e.time = t;
    e.kind = kind;
    e.block = block;
    e.size = size;
    return e;
}

TEST(Report, AtiAndOutlierLinesMatchTheSampleOracle)
{
    using trace::EventKind;
    // 0 samples: one access per block.
    trace::TraceRecorder r;
    r.record(event(0, EventKind::kMalloc, 1, 700 * kMB));
    r.record(event(10, EventKind::kWrite, 1, 700 * kMB));
    expect_report_matches_oracle(r);
    // 1 sample, an outlier: 700 MB idle for 1 s.
    r.record(event(kSecond + 10, EventKind::kRead, 1, 700 * kMB));
    expect_report_matches_oracle(r);
    // 2 samples (even count); the second is 0.5 s, no outlier.
    r.record(event(kSecond + kSecond / 2 + 10, EventKind::kRead, 1,
                   700 * kMB));
    expect_report_matches_oracle(r);
    // Equal-size outliers on two more blocks, duplicate intervals,
    // and an odd count: the largest row is the ranking's first of
    // four 700 MB samples.
    r.record(event(2 * kSecond, EventKind::kMalloc, 2, 700 * kMB));
    r.record(event(2 * kSecond, EventKind::kMalloc, 3, 700 * kMB));
    r.record(event(2 * kSecond, EventKind::kWrite, 2, 700 * kMB));
    r.record(event(2 * kSecond, EventKind::kWrite, 3, 700 * kMB));
    r.record(event(3 * kSecond, EventKind::kRead, 2, 700 * kMB));
    r.record(event(3 * kSecond, EventKind::kRead, 3, 700 * kMB));
    r.record(event(5 * kSecond, EventKind::kRead, 3, 700 * kMB));
    const auto outliers =
        sift_outliers(compute_atis(TraceView(r)), OutlierCriteria{});
    ASSERT_EQ(outliers.size(), 4u);
    EXPECT_EQ(compute_atis(TraceView(r)).size(), 5u);
    expect_report_matches_oracle(r);
    // A small block's long gap is no outlier; a large block after a
    // reused id starts a fresh chain.
    r.record(event(6 * kSecond, EventKind::kFree, 2, 700 * kMB));
    r.record(event(6 * kSecond, EventKind::kMalloc, 2, 900 * kMB));
    r.record(event(6 * kSecond, EventKind::kWrite, 2, 900 * kMB));
    r.record(event(6 * kSecond, EventKind::kMalloc, 4, 64 * kMB));
    r.record(event(6 * kSecond, EventKind::kWrite, 4, 64 * kMB));
    r.record(event(8 * kSecond, EventKind::kRead, 4, 64 * kMB));
    r.record(event(9 * kSecond, EventKind::kRead, 2, 900 * kMB));
    expect_report_matches_oracle(r);
}

TEST(Report, MatchesTheSampleOracleOnRandomTraces)
{
    std::size_t tied_outliers = 0;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        SCOPED_TRACE(seed);
        const trace::TraceRecorder r = test_support::random_trace(
            seed, 20 + 10 * seed, {64 * kMB, 700 * kMB, 700 * kMB},
            300 * kNsPerMs);
        expect_report_matches_oracle(r);
        if (sift_outliers(TraceView(r), OutlierCriteria{}).size() >= 2)
            ++tied_outliers;
    }
    // Most traces rank several equal-size outliers.
    EXPECT_GE(tied_outliers, 30u);
}

TEST(Report, RejectsEmptyTrace)
{
    trace::TraceRecorder empty;
    EXPECT_THROW(report_string(TraceView(empty)), Error);
}

}  // namespace
}  // namespace analysis
}  // namespace pinpoint
