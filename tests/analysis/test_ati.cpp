/** @file Unit tests for ATI extraction. */
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "analysis/ati.h"
#include "analysis/stats.h"
#include "analysis/timeline.h"
#include "analysis/trace_view.h"
#include "support/random_trace.h"

namespace pinpoint {
namespace analysis {
namespace {

trace::MemoryEvent
ev(TimeNs t, trace::EventKind kind, BlockId block,
   std::size_t size = 1024)
{
    trace::MemoryEvent e;
    e.time = t;
    e.kind = kind;
    e.block = block;
    e.size = size;
    return e;
}

TEST(Ati, AdjacentAccessesOnSameBlock)
{
    trace::TraceRecorder r;
    r.record(ev(0, trace::EventKind::kMalloc, 1));
    r.record(ev(10, trace::EventKind::kWrite, 1));
    r.record(ev(35, trace::EventKind::kRead, 1));
    r.record(ev(60, trace::EventKind::kRead, 1));
    r.record(ev(70, trace::EventKind::kFree, 1));

    const auto atis = compute_atis(TraceView(r));
    ASSERT_EQ(atis.size(), 2u);
    EXPECT_EQ(atis[0].interval, 25u);
    EXPECT_EQ(atis[1].interval, 25u);
    EXPECT_EQ(atis[0].block, 1u);
}

TEST(Ati, BlocksAreIndependent)
{
    trace::TraceRecorder r;
    r.record(ev(0, trace::EventKind::kMalloc, 1));
    r.record(ev(0, trace::EventKind::kMalloc, 2));
    r.record(ev(10, trace::EventKind::kWrite, 1));
    r.record(ev(20, trace::EventKind::kWrite, 2));
    r.record(ev(30, trace::EventKind::kRead, 1));
    r.record(ev(40, trace::EventKind::kRead, 2));

    const auto atis = compute_atis(TraceView(r));
    ASSERT_EQ(atis.size(), 2u);
    EXPECT_EQ(atis[0].interval, 20u);  // block 1: 10 -> 30
    EXPECT_EQ(atis[1].interval, 20u);  // block 2: 20 -> 40
}

TEST(Ati, MallocAndFreeAreNotAccessesByDefault)
{
    trace::TraceRecorder r;
    r.record(ev(0, trace::EventKind::kMalloc, 1));
    r.record(ev(100, trace::EventKind::kWrite, 1));
    r.record(ev(250, trace::EventKind::kFree, 1));
    EXPECT_TRUE(compute_atis(TraceView(r)).empty());
}

TEST(Ati, IncludeAllocFreeOptionCountsThem)
{
    trace::TraceRecorder r;
    r.record(ev(0, trace::EventKind::kMalloc, 1));
    r.record(ev(100, trace::EventKind::kWrite, 1));
    r.record(ev(250, trace::EventKind::kFree, 1));
    AtiOptions opts;
    opts.include_alloc_free = true;
    const auto atis = compute_atis(TraceView(r), opts);
    ASSERT_EQ(atis.size(), 2u);
    EXPECT_EQ(atis[0].interval, 100u);
    EXPECT_EQ(atis[1].interval, 150u);
}

TEST(Ati, BlockIdReuseStartsFreshChain)
{
    trace::TraceRecorder r;
    r.record(ev(0, trace::EventKind::kMalloc, 1));
    r.record(ev(10, trace::EventKind::kWrite, 1));
    r.record(ev(20, trace::EventKind::kFree, 1));
    r.record(ev(1000, trace::EventKind::kMalloc, 1));
    r.record(ev(1010, trace::EventKind::kWrite, 1));
    const auto atis = compute_atis(TraceView(r));
    EXPECT_TRUE(atis.empty())
        << "the write at 1010 must not pair with the write at 10";
}

TEST(Ati, SamplesCarrySizeCategoryAndIndex)
{
    trace::TraceRecorder r;
    auto m = ev(0, trace::EventKind::kMalloc, 5, 4096);
    m.category = Category::kParameter;
    r.record(m);
    auto w = ev(10, trace::EventKind::kWrite, 5, 4096);
    w.category = Category::kParameter;
    r.record(w);
    auto rd = ev(40, trace::EventKind::kRead, 5, 4096);
    rd.category = Category::kParameter;
    r.record(rd);

    const auto atis = compute_atis(TraceView(r));
    ASSERT_EQ(atis.size(), 1u);
    EXPECT_EQ(atis[0].size, 4096u);
    EXPECT_EQ(atis[0].category, Category::kParameter);
    EXPECT_EQ(atis[0].behavior_index, 2u);
    EXPECT_EQ(atis[0].at_time, 40u);
}

TEST(Ati, MicrosecondsConversion)
{
    std::vector<AtiSample> atis(2);
    atis[0].interval = 25 * kNsPerUs;
    atis[1].interval = 500;
    const auto us = ati_microseconds(atis);
    ASSERT_EQ(us.size(), 2u);
    EXPECT_DOUBLE_EQ(us[0], 25.0);
    EXPECT_DOUBLE_EQ(us[1], 0.5);
}

TEST(Ati, EmptyTraceYieldsNoSamples)
{
    trace::TraceRecorder r;
    EXPECT_TRUE(compute_atis(TraceView(r)).empty());
}

/** Expects ati_stats of @p r equal to summarizing its samples. */
void
expect_stats_match_samples(const trace::TraceRecorder &r)
{
    const TraceView view(r);
    const AtiStats got = ati_stats(view.timeline());
    const SummaryStats want =
        summarize(ati_microseconds(compute_atis(view)));
    EXPECT_EQ(got.count, want.count);
    EXPECT_EQ(got.median, want.median);
    EXPECT_EQ(got.p90, want.p90);
    EXPECT_EQ(got.max, want.max);
}

TEST(Ati, StatsOfNoOneAndTwoSamples)
{
    trace::TraceRecorder none;
    none.record(ev(0, trace::EventKind::kMalloc, 1));
    none.record(ev(10, trace::EventKind::kWrite, 1));
    none.record(ev(20, trace::EventKind::kFree, 1));
    expect_stats_match_samples(none);
    EXPECT_EQ(ati_stats(TraceView(none).timeline()).count, 0u);

    trace::TraceRecorder one = none;
    one.record(ev(30, trace::EventKind::kMalloc, 2));
    one.record(ev(40, trace::EventKind::kWrite, 2));
    one.record(ev(1040, trace::EventKind::kRead, 2));
    expect_stats_match_samples(one);
    const AtiStats s = ati_stats(TraceView(one).timeline());
    EXPECT_EQ(s.count, 1u);
    EXPECT_EQ(s.median, 1.0);
    EXPECT_EQ(s.max, 1.0);

    trace::TraceRecorder two = one;
    two.record(ev(4040, trace::EventKind::kRead, 2));
    expect_stats_match_samples(two);
    // An even count interpolates: (1 us + 3 us) / 2.
    EXPECT_EQ(ati_stats(TraceView(two).timeline()).median, 2.0);
}

TEST(Ati, StatsMatchSummarizingRandomTraces)
{
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        SCOPED_TRACE(seed);
        // Short traces give a handful of samples (odd and even
        // counts), long ones thousands; a 1 ns tick makes most
        // intervals tie.
        const std::size_t steps = seed % 3 == 0 ? 2000 : 5 + seed;
        const TimeNs tick = seed % 2 ? 1 : 977;
        expect_stats_match_samples(
            test_support::random_trace(seed, steps, {256, 4096}, tick));
    }
}

TEST(Ati, AttributionGroupsByOpPrefix)
{
    trace::TraceRecorder r;
    auto add = [&](TimeNs t, trace::EventKind k, const char *op) {
        auto e = ev(t, k, 1);
        e.op = r.intern(op);
        r.record(e);
    };
    add(0, trace::EventKind::kMalloc, "alloc.x");
    add(10, trace::EventKind::kWrite, "fc0.mat_mul");
    add(30, trace::EventKind::kRead, "fc0.add_bias");
    add(70, trace::EventKind::kRead, "sgd.fc0.weight");
    add(150, trace::EventKind::kRead, "sgd.fc0.weight");

    const TraceView view(r);
    const auto atis = compute_atis(view);
    ASSERT_EQ(atis.size(), 3u);
    EXPECT_EQ(view.op_name(atis[0].op), "fc0.add_bias");
    const auto groups = attribute_atis(view, atis);
    ASSERT_EQ(groups.size(), 2u);
    EXPECT_EQ(groups[0].prefix, "sgd");
    EXPECT_EQ(groups[0].count, 2u);
    EXPECT_DOUBLE_EQ(groups[0].median_us, 0.06);
    EXPECT_EQ(groups[1].prefix, "fc0");
    EXPECT_DOUBLE_EQ(groups[1].median_us, 0.02);
}

TEST(Ati, AttributionOfEmptyInput)
{
    EXPECT_TRUE(attribute_atis(TraceView(trace::TraceRecorder{}), {})
                    .empty());
}

}  // namespace
}  // namespace analysis
}  // namespace pinpoint
