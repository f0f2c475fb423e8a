/**
 * @file
 * Unit tests for recomputation relief: producer indexing from the
 * trace, and the StrategyPlanner's recompute-only report —
 * measured-forward-time costing, gap walking, and the zero-gap
 * regression.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/producers.h"
#include "analysis/trace_view.h"
#include "relief/strategy_planner.h"

namespace pinpoint {
namespace relief {
namespace {

constexpr std::size_t kMB = 1024 * 1024;

trace::MemoryEvent
ev(trace::TraceRecorder &r, TimeNs t, trace::EventKind kind,
   BlockId block, std::size_t size, const char *op = "",
   std::int32_t op_index = -1,
   Category category = Category::kIntermediate,
   std::uint32_t iteration = 0)
{
    trace::MemoryEvent e;
    e.time = t;
    e.kind = kind;
    e.block = block;
    e.size = size;
    e.tensor = block;
    e.category = category;
    e.iteration = iteration;
    e.op_index = op_index;
    e.op = r.intern(op);
    return e;
}

/**
 * One forward op (index 5, 100 ns measured) producing a 64 MB
 * activation that is next read 10 ms later by the backward pass.
 */
trace::TraceRecorder
activation_trace()
{
    trace::TraceRecorder r;
    const std::size_t act = 64 * kMB;
    const std::size_t in = 8 * kMB;
    r.record(ev(r, 0, trace::EventKind::kMalloc, 1, in, "", -1,
                Category::kInput));
    r.record(ev(r, 0, trace::EventKind::kMalloc, 2, act));
    // conv1.forward reads the input at launch (t=10) and writes the
    // activation at completion (t=110): measured duration 100 ns.
    r.record(ev(r, 10, trace::EventKind::kRead, 1, in, "conv1.forward", 5,
                Category::kInput));
    r.record(ev(r, 110, trace::EventKind::kWrite, 2, act,
                "conv1.forward", 5));
    r.record(ev(r, 10 * kNsPerMs, trace::EventKind::kRead, 2, act,
                "conv1.backward.dgrad", 42));
    r.record(ev(r, 10 * kNsPerMs + 50, trace::EventKind::kFree, 2, act));
    r.record(ev(r, 10 * kNsPerMs + 60, trace::EventKind::kFree, 1, in,
                "", -1, Category::kInput));
    return r;
}

/** @return how many blocks of @p producers have a priced producer. */
std::size_t
recomputable(const analysis::ProducerIndex &producers)
{
    return static_cast<std::size_t>(
        std::count_if(producers.begin(), producers.end(),
                      [](const analysis::Producer &p) {
                          return p.forward_ns > 0;
                      }));
}

TEST(IndexProducers, FindsForwardWriterWithMeasuredDuration)
{
    const analysis::TraceView view(activation_trace());
    const auto producers = analysis::index_producers(view);
    // One entry per slot; slots number blocks in malloc order, so the
    // input (block 1) is slot 0 and the activation (block 2) slot 1.
    ASSERT_EQ(producers.size(), 2u);
    EXPECT_EQ(view.op_name(producers[1].op), "conv1.forward");
    EXPECT_EQ(producers[1].forward_ns, 100u);
    // The input block has no forward producer.
    EXPECT_EQ(producers[0].forward_ns, 0u);
}

TEST(IndexProducers, SkipsBackwardAndOptimizerWriters)
{
    trace::TraceRecorder r;
    r.record(ev(r, 0, trace::EventKind::kMalloc, 1, 64 * kMB));
    r.record(ev(r, 10, trace::EventKind::kRead, 1, 64 * kMB,
                "fc.backward.wgrad", 7));
    r.record(ev(r, 110, trace::EventKind::kWrite, 1, 64 * kMB,
                "fc.backward.wgrad", 7));
    r.record(ev(r, 200, trace::EventKind::kFree, 1, 64 * kMB));
    EXPECT_EQ(
        recomputable(analysis::index_producers(analysis::TraceView(r))),
        0u);

    EXPECT_FALSE(analysis::is_forward_op("fc.backward.wgrad"));
    EXPECT_FALSE(analysis::is_forward_op("layer1.0.out.grad_accum"));
    EXPECT_FALSE(analysis::is_forward_op("sgd.fc.weight"));
    EXPECT_FALSE(analysis::is_forward_op("data.h2d"));
    EXPECT_FALSE(analysis::is_forward_op(""));
    EXPECT_TRUE(analysis::is_forward_op("layer1.0.conv2.forward"));
    EXPECT_TRUE(analysis::is_forward_op("fc1.mat_mul"));
    EXPECT_TRUE(analysis::is_forward_op("fc1.add_bias"));
}

TEST(IndexProducers, SkipsNonIntermediateCategories)
{
    trace::TraceRecorder r;
    r.record(ev(r, 0, trace::EventKind::kMalloc, 1, 64 * kMB, "", -1,
                Category::kParameter));
    r.record(ev(r, 10, trace::EventKind::kRead, 1, 64 * kMB,
                "bn1.forward", 3, Category::kParameter));
    r.record(ev(r, 110, trace::EventKind::kWrite, 1, 64 * kMB,
                "bn1.forward", 3, Category::kParameter));
    r.record(ev(r, 200, trace::EventKind::kFree, 1, 64 * kMB, "", -1,
                Category::kParameter));
    EXPECT_EQ(
        recomputable(analysis::index_producers(analysis::TraceView(r))),
        0u);
}

/**
 * The recompute-only relief report of @p r at unlimited budget,
 * ignoring blocks under @p min_block_bytes. The link is irrelevant
 * to recomputation; it only has to be valid.
 */
ReliefReport
recompute_plan(const trace::TraceRecorder &r,
               std::size_t min_block_bytes = kMB)
{
    StrategyOptions opts;
    opts.link = analysis::LinkBandwidth{1.0e9, 1.0e9};
    opts.min_block_bytes = min_block_bytes;
    const auto all = StrategyPlanner(opts).plan_all(analysis::TraceView(r));
    return all[static_cast<std::size_t>(Strategy::kRecomputeOnly)];
}

TEST(RecomputeRelief, PlansGapAtMeasuredForwardCost)
{
    const trace::TraceRecorder trace = activation_trace();
    const auto plan = recompute_plan(trace);
    ASSERT_EQ(plan.decisions.size(), 1u);
    const auto &d = plan.decisions[0];
    EXPECT_EQ(d.block, 2u);
    EXPECT_EQ(d.gap_start, 110u);
    EXPECT_EQ(d.gap_end, 10 * kNsPerMs);
    EXPECT_EQ(d.mechanism, Mechanism::kRecompute);
    // The view names ops with its recorder's ids.
    EXPECT_EQ(trace.op_name(d.producer), "conv1.forward");
    EXPECT_EQ(d.overhead, 100u);
    EXPECT_EQ(totals_of(plan).overhead, 100u);
    EXPECT_EQ(totals_of(plan, Mechanism::kRecompute).bytes, 64 * kMB);
}

TEST(RecomputeRelief, ZeroGapProducesNoDecision)
{
    // Two accesses at the same instant: the "gap" has zero width, so
    // dropping the block buys nothing and must not be scheduled
    // (regression: gap_end <= gap_start candidates are skipped).
    trace::TraceRecorder r;
    const std::size_t act = 64 * kMB;
    r.record(ev(r, 0, trace::EventKind::kMalloc, 2, kMB));
    r.record(ev(r, 0, trace::EventKind::kMalloc, 1, act));
    r.record(ev(r, 5, trace::EventKind::kRead, 2, kMB, "f.forward", 1));
    r.record(ev(r, 105, trace::EventKind::kWrite, 1, act, "f.forward", 1));
    r.record(ev(r, 105, trace::EventKind::kRead, 1, act, "g.forward", 2));
    r.record(ev(r, 200, trace::EventKind::kFree, 1, act));
    r.record(ev(r, 210, trace::EventKind::kFree, 2, kMB));
    EXPECT_TRUE(recompute_plan(r).decisions.empty());
}

TEST(RecomputeRelief, ReRunMustFitInsideTheGap)
{
    // A 100 ns producer and a 60 ns gap: the output buffer would be
    // live again for the entire gap while the producer replays, so
    // dropping it frees nothing and must not be scheduled.
    trace::TraceRecorder r;
    const std::size_t act = 64 * kMB;
    const std::size_t in = 8 * kMB;
    r.record(ev(r, 0, trace::EventKind::kMalloc, 1, in, "", -1,
                Category::kInput));
    r.record(ev(r, 0, trace::EventKind::kMalloc, 2, act));
    r.record(ev(r, 10, trace::EventKind::kRead, 1, in, "conv1.forward",
                5, Category::kInput));
    r.record(ev(r, 110, trace::EventKind::kWrite, 2, act,
                "conv1.forward", 5));
    r.record(ev(r, 170, trace::EventKind::kRead, 2, act,
                "conv1.backward.dgrad", 42));
    r.record(ev(r, 200, trace::EventKind::kFree, 2, act));
    r.record(ev(r, 210, trace::EventKind::kFree, 1, in, "", -1,
                Category::kInput));
    EXPECT_TRUE(recompute_plan(r).decisions.empty());
}

TEST(RecomputeRelief, MinBlockFilterDropsSmallBlocks)
{
    const auto plan = recompute_plan(activation_trace(), 128 * kMB);
    EXPECT_TRUE(plan.decisions.empty());
}

TEST(RecomputeRelief, PeakCreditUsesComputeAdjustedWindow)
{
    // A transient spike inside the activation's absence window
    // [gap_start, gap_end - cost): the dropped block is absent
    // there, so its size counts as peak reduction.
    trace::TraceRecorder r;
    const std::size_t act = 64 * kMB;
    const std::size_t spike = 32 * kMB;
    r.record(ev(r, 0, trace::EventKind::kMalloc, 2, kMB));
    r.record(ev(r, 0, trace::EventKind::kMalloc, 1, act));
    r.record(ev(r, 5, trace::EventKind::kRead, 2, kMB, "f.forward", 1));
    r.record(ev(r, 105, trace::EventKind::kWrite, 1, act, "f.forward", 1));
    r.record(ev(r, 5 * kNsPerMs, trace::EventKind::kMalloc, 3, spike));
    r.record(ev(r, 6 * kNsPerMs, trace::EventKind::kFree, 3, spike));
    r.record(ev(r, 10 * kNsPerMs, trace::EventKind::kRead, 1, act,
                "f.backward.dgrad", 9));
    r.record(ev(r, 11 * kNsPerMs, trace::EventKind::kFree, 1, act));
    r.record(ev(r, 11 * kNsPerMs, trace::EventKind::kFree, 2, kMB));

    const auto plan = recompute_plan(r);
    ASSERT_EQ(plan.decisions.size(), 1u);
    EXPECT_EQ(analysis::TraceView(r).timeline().peak_bytes(),
              act + spike + kMB);
    EXPECT_EQ(totals_of(plan).covered_bytes, act);
}

}  // namespace
}  // namespace relief
}  // namespace pinpoint
