/**
 * @file
 * Unified relief-strategy planner tests: the zoo-wide hybrid
 * dominance property (hybrid peak reduction >= max of the pure
 * strategies at equal overhead budget), the recompute-cheaper-than-
 * swap regression, budget accounting, shared-link scheduling of the
 * swap legs, determinism, and the two shortcuts of the selection:
 * the hybrid report copied from an adopted pure one, and the all-fit
 * budget path that skips the bytes/ns ranking.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "analysis/trace_view.h"
#include "api/study.h"
#include "core/check.h"
#include "core/dtype.h"
#include "nn/model_registry.h"
#include "relief/strategy_planner.h"
#include "runtime/session.h"
#include "sim/device_spec.h"
#include "sim/link_scheduler.h"
#include "sim/topology.h"
#include "support/occupancy_oracle.h"
#include "swap/executor.h"
#include "swap/planner.h"
#include "trace/csv.h"

namespace pinpoint {
namespace relief {
namespace {

constexpr std::size_t kMB = 1024 * 1024;

// A decision is a plain record: the producer is an op id, named
// through the view the report was planned on, not a copied string.
static_assert(std::is_trivially_copyable_v<ReliefDecision>);
static_assert(sizeof(ReliefDecision) <= 72);

/** Per-Strategy arrays are read by enumerator, never by position
 * (the PR 6 bug class; enforced repo-wide by pinpoint_analyze). */
constexpr std::size_t
at(Strategy s)
{
    return static_cast<std::size_t>(s);
}

trace::MemoryEvent
ev(trace::TraceRecorder &r, TimeNs t, trace::EventKind kind,
   BlockId block, std::size_t size, const char *op = "",
   std::int32_t op_index = -1)
{
    trace::MemoryEvent e;
    e.time = t;
    e.kind = kind;
    e.block = block;
    e.size = size;
    e.tensor = block;
    e.category = Category::kIntermediate;
    e.op_index = op_index;
    e.op = r.intern(op);
    return e;
}

/** Slow-link options so swaps are expensive relative to compute. */
StrategyOptions
slow_link_options()
{
    StrategyOptions opts;
    opts.link = analysis::LinkBandwidth{1.0e9, 1.0e9};
    return opts;
}

/**
 * A 64 MB activation produced by a 1 us forward op, with a 10 ms
 * gap to its backward use. At 1 GB/s the swap round trip needs
 * ~128 ms — a ~118 ms stall — while recomputing costs 1 us: the
 * textbook recompute-cheaper-than-swap tensor.
 */
trace::TraceRecorder
recompute_cheaper_trace()
{
    trace::TraceRecorder r;
    const std::size_t act = 64 * kMB;
    r.record(ev(r, 0, trace::EventKind::kMalloc, 3, 4 * kMB));
    r.record(ev(r, 0, trace::EventKind::kMalloc, 1, act));
    r.record(ev(r, 10, trace::EventKind::kRead, 3, 4 * kMB, "f.forward",
                1));
    r.record(ev(r, 10 + kNsPerUs, trace::EventKind::kWrite, 1, act,
                "f.forward", 1));
    // Transient spike inside the gap puts the peak there.
    r.record(ev(r, 5 * kNsPerMs, trace::EventKind::kMalloc, 2, 32 * kMB));
    r.record(ev(r, 6 * kNsPerMs, trace::EventKind::kFree, 2, 32 * kMB));
    r.record(ev(r, 10 * kNsPerMs, trace::EventKind::kRead, 1, act,
                "f.backward.dgrad", 9));
    r.record(ev(r, 11 * kNsPerMs, trace::EventKind::kFree, 1, act));
    r.record(ev(r, 11 * kNsPerMs, trace::EventKind::kFree, 3, 4 * kMB));
    return r;
}

TEST(StrategyNames, RoundTrip)
{
    EXPECT_STREQ(strategy_name(Strategy::kSwapOnly), "swap");
    EXPECT_STREQ(strategy_name(Strategy::kRecomputeOnly),
                 "recompute");
    EXPECT_STREQ(strategy_name(Strategy::kHybrid), "hybrid");
    EXPECT_EQ(strategy_from_name("swap"), Strategy::kSwapOnly);
    EXPECT_EQ(strategy_from_name("recompute"),
              Strategy::kRecomputeOnly);
    EXPECT_STREQ(strategy_name(Strategy::kPeerOnly), "peer");
    EXPECT_EQ(strategy_from_name("peer"), Strategy::kPeerOnly);
    EXPECT_EQ(strategy_from_name("hybrid"), Strategy::kHybrid);
    // Only the printed names parse.
    for (const char *name :
         {"teleport", "swap-only", "recompute-only", "peer-only",
          "peer-offload"})
        EXPECT_THROW(strategy_from_name(name), UsageError) << name;
    EXPECT_STREQ(mechanism_name(Mechanism::kSwap), "swap");
    EXPECT_STREQ(mechanism_name(Mechanism::kRecompute), "recompute");
    EXPECT_STREQ(mechanism_name(Mechanism::kPeer), "peer");
}

/**
 * Slow host link, fast two-device peer interconnect: the 64 MB
 * activation's 10 ms gap cannot hide a 1 GB/s host round trip
 * (~128 ms) but trivially hides a 48 GB/s peer round trip (~2.7 ms),
 * so peer offload is the free mechanism here.
 */
StrategyOptions
fast_peer_options()
{
    StrategyOptions opts = slow_link_options();
    opts.devices = 2;
    opts.interconnect = sim::InterconnectSpec::nvlink();
    return opts;
}

TEST(StrategyPlanner, PeerUnavailableOnASingleDevice)
{
    StrategyPlanner planner(slow_link_options());
    const analysis::TraceView r(recompute_cheaper_trace());

    EXPECT_FALSE(slow_link_options().peer_available());
    const auto rep = planner.plan_all(r)[at(Strategy::kPeerOnly)];
    EXPECT_FALSE(rep.available);
    EXPECT_TRUE(rep.decisions.empty());
    EXPECT_EQ(totals_of(rep).covered_bytes, 0u);
    EXPECT_EQ(rep.measured_peak_reduction, 0u);
    EXPECT_EQ(rep.new_peak_bytes, r.timeline().peak_bytes());
    EXPECT_EQ(totals_of(rep).overhead, 0);
    EXPECT_EQ(rep.measured_overhead, 0);

    // plan_all carries the same unavailable report in enum order.
    const auto all = planner.plan_all(r);
    EXPECT_TRUE(all[at(Strategy::kSwapOnly)].available);
    EXPECT_TRUE(all[at(Strategy::kRecomputeOnly)].available);
    EXPECT_FALSE(all[at(Strategy::kPeerOnly)].available);
    EXPECT_TRUE(all[at(Strategy::kHybrid)].available);
    for (int s = 0; s < kNumStrategies; ++s)
        EXPECT_EQ(all[static_cast<std::size_t>(s)].strategy,
                  static_cast<Strategy>(s));
}

TEST(StrategyPlanner, PeerOffloadIsPricedOnThePeerLink)
{
    EXPECT_TRUE(fast_peer_options().peer_available());
    StrategyPlanner planner(fast_peer_options());
    const analysis::TraceView r(recompute_cheaper_trace());

    const auto peer_only = planner.plan_all(r)[at(Strategy::kPeerOnly)];
    ASSERT_TRUE(peer_only.available);
    ASSERT_EQ(peer_only.decisions.size(), 1u);
    const ReliefDecision &d = peer_only.decisions[0];
    EXPECT_EQ(d.mechanism, Mechanism::kPeer);
    EXPECT_EQ(d.size, 64 * kMB);
    // The 10 ms gap hides the fast peer round trip: free relief on
    // a link the swap mechanism cannot have (the host link stalls).
    EXPECT_GT(d.hide_ratio, 1.0);
    EXPECT_EQ(d.overhead, 0);
    EXPECT_EQ(totals_of(peer_only).overhead, 0);
    EXPECT_EQ(totals_of(peer_only).covered_bytes, 64 * kMB);
    EXPECT_EQ(totals_of(peer_only, Mechanism::kPeer).decisions, 1u);
    EXPECT_EQ(totals_of(peer_only, Mechanism::kPeer).bytes, 64 * kMB);
    EXPECT_EQ(totals_of(peer_only, Mechanism::kSwap).decisions, 0u);
    EXPECT_EQ(totals_of(peer_only, Mechanism::kRecompute).decisions,
              0u);
    // The peer legs run on the peer link's executor, not the host's.
    EXPECT_EQ(peer_only.swap_schedule.swaps.size(), 0u);
    EXPECT_EQ(peer_only.peer_schedule.swaps.size(), 1u);

    // Hybrid sees all three mechanisms and takes the free one over
    // the ~118 ms swap stall and the 1 us recompute.
    const auto hybrid = planner.plan_all(r)[at(Strategy::kHybrid)];
    ASSERT_EQ(hybrid.decisions.size(), 1u);
    EXPECT_EQ(hybrid.decisions[0].mechanism, Mechanism::kPeer);
    EXPECT_EQ(totals_of(hybrid).overhead, 0);
    EXPECT_EQ(totals_of(hybrid).covered_bytes, 64 * kMB);
}

TEST(StrategyPlanner, HybridPicksRecomputeWhenCheaperThanSwapStall)
{
    StrategyPlanner planner(slow_link_options());
    const analysis::TraceView r(recompute_cheaper_trace());

    const auto swap_only = planner.plan_all(r)[at(Strategy::kSwapOnly)];
    const auto hybrid = planner.plan_all(r)[at(Strategy::kHybrid)];

    // The swap option stalls ~118 ms; recomputing costs 1 us.
    ASSERT_EQ(swap_only.decisions.size(), 1u);
    EXPECT_GT(totals_of(swap_only).overhead, 100 * kNsPerMs);
    ASSERT_EQ(hybrid.decisions.size(), 1u);
    EXPECT_EQ(hybrid.decisions[0].mechanism, Mechanism::kRecompute);
    EXPECT_EQ(r.op_name(hybrid.decisions[0].producer), "f.forward");
    EXPECT_EQ(totals_of(hybrid).overhead, kNsPerUs);
    EXPECT_EQ(totals_of(hybrid).covered_bytes, 64 * kMB);
    EXPECT_GE(totals_of(hybrid).covered_bytes,
              totals_of(swap_only).covered_bytes);
}

TEST(StrategyPlanner, ZeroBudgetKeepsOnlyHideableSwaps)
{
    StrategyOptions opts = slow_link_options();
    opts.overhead_budget = 0;
    StrategyPlanner planner(opts);
    const analysis::TraceView r(recompute_cheaper_trace());

    // Nothing is free here (the swap stalls, the recompute costs a
    // re-run), so a zero budget buys zero decisions.
    for (Strategy s : {Strategy::kSwapOnly, Strategy::kRecomputeOnly,
                       Strategy::kHybrid}) {
        const auto rep = planner.plan_all(r)[at(s)];
        EXPECT_TRUE(rep.decisions.empty())
            << strategy_name(s) << " spent overhead with zero budget";
        EXPECT_EQ(totals_of(rep).overhead, 0u);
    }
}

TEST(StrategyPlanner, HeadroomMissIsNoTransferOption)
{
    // A gap of 1.25 round trips with no priceable producer: at factor
    // 1.5 the swap fits without stall but misses the headroom, so it
    // is not offered at any budget (swap::SwapPlanner takes it at
    // zero overhead only under allow_overhead); at factor 1.0 it is
    // a free swap.
    StrategyOptions opts = slow_link_options();
    const std::size_t size = 64 * kMB;
    const TimeNs needed = analysis::min_interval_for(size, opts.link);
    trace::TraceRecorder r;
    r.record(ev(r, 0, trace::EventKind::kMalloc, 1, size));
    r.record(ev(r, 10, trace::EventKind::kWrite, 1, size));
    r.record(ev(r, 10 + needed * 5 / 4, trace::EventKind::kRead, 1, size));
    const analysis::TraceView view(r);

    opts.safety_factor = 1.5;
    for (const ReliefReport &rep : StrategyPlanner(opts).plan_all(view))
        EXPECT_TRUE(rep.decisions.empty()) << strategy_name(rep.strategy);
    opts.safety_factor = 1.0;
    const ReliefReport swap_only =
        StrategyPlanner(opts).plan_all(view)[at(Strategy::kSwapOnly)];
    ASSERT_EQ(swap_only.decisions.size(), 1u);
    EXPECT_EQ(swap_only.decisions[0].overhead, 0u);
}

TEST(StrategyPlanner, ReportAccountingIsConsistent)
{
    StrategyPlanner planner(slow_link_options());
    const analysis::TraceView view(recompute_cheaper_trace());
    const auto rep = planner.plan_all(view)[at(Strategy::kHybrid)];
    const MechanismTotals swaps = totals_of(rep, Mechanism::kSwap);
    const MechanismTotals recomputes =
        totals_of(rep, Mechanism::kRecompute);
    EXPECT_GT(recomputes.decisions, 0u);
    EXPECT_EQ(swaps.decisions + recomputes.decisions,
              rep.decisions.size());
    std::size_t swapped = 0, recomputed = 0;
    TimeNs overhead = 0;
    for (const auto &d : rep.decisions) {
        (d.mechanism == Mechanism::kSwap ? swapped : recomputed) +=
            d.size;
        overhead += d.overhead;
    }
    EXPECT_EQ(swapped, swaps.bytes);
    EXPECT_EQ(recomputed, recomputes.bytes);
    EXPECT_EQ(overhead, totals_of(rep).overhead);
    // Bytes absent at the original peak instant bound the global
    // peak drop: relieving the peak can surface a second ridge
    // elsewhere, so measured <= predicted, never more.
    EXPECT_GT(rep.measured_peak_reduction, 0u);
    EXPECT_LE(rep.measured_peak_reduction,
              totals_of(rep).covered_bytes);
    // No swap legs here, so no link stall: the scheduled overhead is
    // exactly the predicted recompute cost.
    EXPECT_EQ(rep.measured_overhead, totals_of(rep).overhead);
}

TEST(StrategyPlanner, TotalsSumTheDecisions)
{
    // A hand-built report with every mechanism, decisions on and off
    // the peak, free and paid: each total is the hand sum.
    const auto decision = [](Mechanism m, std::size_t size,
                             TimeNs overhead, bool covers_peak) {
        ReliefDecision d;
        d.mechanism = m;
        d.size = size;
        d.overhead = overhead;
        d.covers_peak = covers_peak;
        return d;
    };
    ReliefReport rep;
    rep.decisions = {decision(Mechanism::kSwap, 10, 0, true),
                     decision(Mechanism::kSwap, 20, 7, false),
                     decision(Mechanism::kRecompute, 40, 3, true),
                     decision(Mechanism::kPeer, 80, 0, false),
                     decision(Mechanism::kPeer, 160, 5, true),
                     decision(Mechanism::kRecompute, 320, 11, false),
                     decision(Mechanism::kSwap, 640, 0, false)};
    struct Expected {
        Mechanism mechanism;
        std::size_t decisions;
        std::size_t bytes;
        std::size_t covered_bytes;
        TimeNs overhead;
    };
    for (const Expected &e :
         {Expected{Mechanism::kSwap, 3, 670, 10, 7},
          Expected{Mechanism::kRecompute, 2, 360, 40, 14},
          Expected{Mechanism::kPeer, 2, 240, 160, 5}}) {
        SCOPED_TRACE(mechanism_name(e.mechanism));
        const MechanismTotals t = totals_of(rep, e.mechanism);
        EXPECT_EQ(t.decisions, e.decisions);
        EXPECT_EQ(t.bytes, e.bytes);
        EXPECT_EQ(t.covered_bytes, e.covered_bytes);
        EXPECT_EQ(t.overhead, e.overhead);
    }
    const MechanismTotals all = totals_of(rep);
    EXPECT_EQ(all.decisions, 7u);
    EXPECT_EQ(all.bytes, 1270u);
    EXPECT_EQ(all.covered_bytes, 210u);
    EXPECT_EQ(all.overhead, 26u);

    // The unavailable peer-only report of a single-device plan sums
    // to zeros, over all its decisions and per mechanism.
    const analysis::TraceView view(recompute_cheaper_trace());
    const ReliefReport unavailable = StrategyPlanner(slow_link_options())
                                         .plan_all(view)[at(
                                             Strategy::kPeerOnly)];
    ASSERT_FALSE(unavailable.available);
    std::vector<MechanismTotals> sums = {totals_of(unavailable)};
    for (Mechanism m :
         {Mechanism::kSwap, Mechanism::kRecompute, Mechanism::kPeer})
        sums.push_back(totals_of(unavailable, m));
    for (const MechanismTotals &t : sums) {
        EXPECT_EQ(t.decisions, 0u);
        EXPECT_EQ(t.bytes, 0u);
        EXPECT_EQ(t.covered_bytes, 0u);
        EXPECT_EQ(t.overhead, 0u);
    }
}

TEST(StrategyPlanner, PlansAreDeterministic)
{
    StrategyPlanner planner(slow_link_options());
    const analysis::TraceView r(recompute_cheaper_trace());
    for (Strategy s : {Strategy::kSwapOnly, Strategy::kRecomputeOnly,
                       Strategy::kHybrid}) {
        const auto a = planner.plan_all(r)[at(s)];
        const auto b = planner.plan_all(r)[at(s)];
        ASSERT_EQ(a.decisions.size(), b.decisions.size());
        for (std::size_t i = 0; i < a.decisions.size(); ++i) {
            EXPECT_EQ(a.decisions[i].mechanism,
                      b.decisions[i].mechanism);
            EXPECT_EQ(a.decisions[i].block, b.decisions[i].block);
            EXPECT_EQ(a.decisions[i].gap_start,
                      b.decisions[i].gap_start);
            EXPECT_EQ(a.decisions[i].overhead,
                      b.decisions[i].overhead);
        }
        EXPECT_EQ(totals_of(a).covered_bytes,
                  totals_of(b).covered_bytes);
        EXPECT_EQ(a.new_peak_bytes, b.new_peak_bytes);
    }
}

/**
 * Zoo-wide dominance property: for every registry model and a
 * ladder of overhead budgets, the hybrid strategy's peak reduction
 * is at least max(swap-only, recompute-only, peer-only) while every
 * strategy respects the budget. This is the contract the hybrid
 * planner guarantees structurally (it adopts a pure selection
 * whenever the union greedy loses to it).
 */
TEST(StrategyPlanner, HybridDominatesPureStrategiesZooWide)
{
    const auto spec = sim::DeviceSpec::titan_x_pascal();
    const TimeNs budgets[] = {0, kNsPerMs, 100 * kNsPerMs,
                              kUnlimitedBudget};
    for (const auto &entry : nn::model_registry()) {
        SCOPED_TRACE(entry.name);
        runtime::SessionConfig config;
        config.batch = 8;
        config.iterations = 2;
        const auto result =
            runtime::run_training(entry.build(), config);

        for (TimeNs budget : budgets) {
            SCOPED_TRACE(budget);
            StrategyOptions opts;
            opts.link = analysis::LinkBandwidth{spec.d2h_bw_bps,
                                                spec.h2d_bw_bps};
            opts.overhead_budget = budget;
            opts.devices = 2;
            opts.interconnect = sim::InterconnectSpec::nvlink();
            StrategyPlanner planner(opts);

            const auto all = planner.plan_all(result.view());
            const auto &swap_only = all[at(Strategy::kSwapOnly)];
            const auto &rec_only =
                all[at(Strategy::kRecomputeOnly)];
            const auto &peer_only = all[at(Strategy::kPeerOnly)];
            const auto &hybrid = all[at(Strategy::kHybrid)];
            ASSERT_TRUE(peer_only.available);

            if (budget != kUnlimitedBudget) {
                EXPECT_LE(totals_of(swap_only).overhead, budget);
                EXPECT_LE(totals_of(rec_only).overhead, budget);
                EXPECT_LE(totals_of(peer_only).overhead, budget);
                EXPECT_LE(totals_of(hybrid).overhead, budget);
            }
            EXPECT_GE(totals_of(hybrid).covered_bytes,
                      std::max({totals_of(swap_only).covered_bytes,
                                totals_of(rec_only).covered_bytes,
                                totals_of(peer_only).covered_bytes}))
                << "hybrid lost to a pure strategy at equal budget";
            // Predicted dominance ties break on overhead: at equal
            // reduction the hybrid never pays more than a pure
            // strategy would.
            for (const ReliefReport *pure :
                 {&swap_only, &rec_only, &peer_only}) {
                if (totals_of(hybrid).covered_bytes ==
                    totals_of(*pure).covered_bytes) {
                    EXPECT_LE(totals_of(hybrid).overhead,
                              totals_of(*pure).overhead)
                        << strategy_name(pure->strategy);
                }
            }
            // Peer offload never beats the hybrid at equal budget
            // unless its measured overhead is lower. "Beats" is on
            // the budgeted objective (predicted peak reduction):
            // measured numbers include emergent link contention the
            // selection cannot see, so a lower measured overhead is
            // the one legitimate way the pure peer plan may come
            // out ahead of the mix.
            if (peer_only.measured_overhead >=
                hybrid.measured_overhead) {
                EXPECT_LE(totals_of(peer_only).covered_bytes,
                          totals_of(hybrid).covered_bytes)
                    << "peer offload beat hybrid at equal budget "
                       "without a measured overhead advantage";
            }
            // Pure plans only touch their own mechanism and link.
            EXPECT_EQ(totals_of(rec_only, Mechanism::kSwap).decisions,
                      0u);
            EXPECT_EQ(totals_of(rec_only, Mechanism::kPeer).decisions,
                      0u);
            EXPECT_EQ(
                rec_only.swap_schedule.swaps.size(), 0u);
            EXPECT_EQ(totals_of(peer_only, Mechanism::kSwap).decisions,
                      0u);
            EXPECT_EQ(
                totals_of(peer_only, Mechanism::kRecompute).decisions,
                0u);
            EXPECT_EQ(
                peer_only.swap_schedule.swaps.size(), 0u);
            EXPECT_EQ(peer_only.peer_schedule.swaps.size(),
                      totals_of(peer_only, Mechanism::kPeer).decisions);
            // Swap legs are link-scheduled: contention can only add
            // stall beyond the per-decision prediction.
            TimeNs swap_leg_overhead = 0;
            for (const auto &d : hybrid.decisions)
                if (d.mechanism == Mechanism::kSwap)
                    swap_leg_overhead += d.overhead;
            EXPECT_GE(hybrid.swap_schedule.measured_stall,
                      swap_leg_overhead);
            // Predicted reduction never exceeds the original peak.
            EXPECT_LE(totals_of(hybrid).covered_bytes,
                      result.view().timeline().peak_bytes());
        }
    }
}

void
expect_same_schedule(const swap::LinkSchedule &a,
                     const swap::LinkSchedule &b)
{
    EXPECT_EQ(a.d2h_busy_time, b.d2h_busy_time);
    EXPECT_EQ(a.h2d_busy_time, b.h2d_busy_time);
    EXPECT_EQ(a.link_busy_fraction, b.link_busy_fraction);
    EXPECT_EQ(a.measured_stall, b.measured_stall);
    EXPECT_EQ(a.queue_delay, b.queue_delay);
    ASSERT_EQ(a.swaps.size(), b.swaps.size());
    for (std::size_t i = 0; i < a.swaps.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(a.swaps[i].out_start, b.swaps[i].out_start);
        EXPECT_EQ(a.swaps[i].out_end, b.swaps[i].out_end);
        EXPECT_EQ(a.swaps[i].in_start, b.swaps[i].in_start);
        EXPECT_EQ(a.swaps[i].in_end, b.swaps[i].in_end);
        EXPECT_EQ(a.swaps[i].stall, b.swaps[i].stall);
        EXPECT_EQ(a.swaps[i].queue_delay, b.swaps[i].queue_delay);
    }
}

void
expect_same_decisions(const std::vector<ReliefDecision> &a,
                      const std::vector<ReliefDecision> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(a[i].mechanism, b[i].mechanism);
        EXPECT_EQ(a[i].block, b[i].block);
        EXPECT_EQ(a[i].slot, b[i].slot);
        EXPECT_EQ(a[i].tensor, b[i].tensor);
        EXPECT_EQ(a[i].size, b[i].size);
        EXPECT_EQ(a[i].gap_start, b[i].gap_start);
        EXPECT_EQ(a[i].gap_end, b[i].gap_end);
        EXPECT_EQ(a[i].overhead, b[i].overhead);
        EXPECT_EQ(a[i].covers_peak, b[i].covers_peak);
        EXPECT_EQ(a[i].hide_ratio, b[i].hide_ratio);
        EXPECT_EQ(a[i].producer, b[i].producer);
    }
}

/** Expects @p a and @p b equal in every field but `strategy`. */
void
expect_same_report(const ReliefReport &a, const ReliefReport &b)
{
    EXPECT_EQ(a.available, b.available);
    expect_same_decisions(a.decisions, b.decisions);
    EXPECT_EQ(totals_of(a).covered_bytes, totals_of(b).covered_bytes);
    EXPECT_EQ(totals_of(a).overhead, totals_of(b).overhead);
    EXPECT_EQ(a.new_peak_bytes, b.new_peak_bytes);
    EXPECT_EQ(a.measured_peak_reduction, b.measured_peak_reduction);
    EXPECT_EQ(a.measured_overhead, b.measured_overhead);
    expect_same_schedule(a.swap_schedule, b.swap_schedule);
    expect_same_schedule(a.peer_schedule, b.peer_schedule);
}

/**
 * When the hybrid guard adopts a pure selection, the hybrid report
 * is that pure report under the hybrid name — down to the link
 * schedule and the what-if peak. The resnet18 case is the golden
 * relief fixture (the guard adopts swap); at 5 ms the alexnet-cifar
 * guard adopts the empty recompute plan over a union that pays for
 * a swap with no peak saving.
 */
TEST(StrategyPlanner, HybridReusesTheAdoptedPureReport)
{
    struct Case {
        const char *model;
        int batch;
        TimeNs budget;
        Strategy adopted;
    };
    for (const Case &c :
         {Case{"resnet18", 16, 50 * kNsPerMs, Strategy::kSwapOnly},
          Case{"alexnet-cifar", 32, 5 * kNsPerMs,
               Strategy::kRecomputeOnly}}) {
        SCOPED_TRACE(c.model);
        api::WorkloadSpec spec;
        spec.model = c.model;
        spec.batch = c.batch;
        spec.iterations = 2;
        // The relief command's defaults: 8 MiB minimum block.
        api::StudyOptions options;
        options.relief.min_block_bytes = 8 * kMB;
        options.relief.overhead_budget = c.budget;
        const api::Study study = api::Study::run(spec, options);
        const auto all = study.relief_all();
        const ReliefReport &hybrid = all[at(Strategy::kHybrid)];
        const ReliefReport &pure = all[at(c.adopted)];
        EXPECT_EQ(hybrid.strategy, Strategy::kHybrid);
        EXPECT_EQ(pure.strategy, c.adopted);
        for (const auto &d : hybrid.decisions)
            EXPECT_EQ(d.mechanism, c.adopted == Strategy::kSwapOnly
                                       ? Mechanism::kSwap
                                       : Mechanism::kRecompute);
        expect_same_report(hybrid, pure);
    }
}

/**
 * When no pure selection beats the union but one picks exactly what
 * it picks, the hybrid report is that pure report too. Both serving
 * studies of the benchmark's serve-stream workload are such cases:
 * their hybrid plans swap and nothing else, and equal the swap-only
 * report field by field, bar the strategy.
 */
TEST(StrategyPlanner, ServingHybridIsTheSwapOnlyReport)
{
    struct Case {
        const char *model;
        int batch;
        DType dtype;
    };
    for (const Case &c : {Case{"resnet50", 8, DType::kF32},
                          Case{"transformer", 32, DType::kF16}}) {
        SCOPED_TRACE(c.model);
        api::WorkloadSpec spec;
        spec.model = c.model;
        spec.batch = c.batch;
        spec.dtype = c.dtype;
        spec.mode = runtime::SessionMode::kInfer;
        spec.requests = 64;
        // The relief command's defaults: 8 MiB minimum block, and
        // the stream's p50 latency as the per-request SLO.
        api::StudyOptions options;
        options.relief.min_block_bytes = 8 * kMB;
        const api::Study study = api::Study::run(spec, options);
        const auto all = study.relief_all();
        const ReliefReport &hybrid = all[at(Strategy::kHybrid)];
        const ReliefReport &swap = all[at(Strategy::kSwapOnly)];
        EXPECT_EQ(hybrid.strategy, Strategy::kHybrid);
        EXPECT_EQ(swap.strategy, Strategy::kSwapOnly);
        ASSERT_FALSE(hybrid.decisions.empty());
        for (const auto &d : hybrid.decisions)
            ASSERT_EQ(d.mechanism, Mechanism::kSwap);
        expect_same_report(hybrid, swap);
    }
}

/**
 * The selection ranks paid choices only when they overrun the
 * budget together. At a budget of exactly their total overhead the
 * unranked path must give the unlimited plan; one nanosecond less
 * takes the ranked path, which must drop a paid decision.
 */
TEST(StrategyPlanner, BudgetOfExactlyThePaidTotalKeepsEveryDecision)
{
    const auto spec = sim::DeviceSpec::titan_x_pascal();
    runtime::SessionConfig config;
    config.batch = 16;
    config.iterations = 2;
    const auto result =
        runtime::run_training(nn::build_model("resnet18"), config);
    StrategyOptions opts;
    opts.link = analysis::LinkBandwidth{spec.d2h_bw_bps,
                                        spec.h2d_bw_bps};
    const auto unlimited = StrategyPlanner(opts).plan_all(result.view());

    auto paid = [](const ReliefReport &r) {
        return std::count_if(r.decisions.begin(), r.decisions.end(),
                             [](const ReliefDecision &d) {
                                 return d.overhead > 0;
                             });
    };
    for (Strategy s : {Strategy::kSwapOnly, Strategy::kRecomputeOnly}) {
        SCOPED_TRACE(strategy_name(s));
        const ReliefReport &all = unlimited[at(s)];
        const TimeNs total = totals_of(all).overhead;
        ASSERT_GT(paid(all), 0);
        ASSERT_GT(total, 0u);

        opts.overhead_budget = total;
        const auto exact = StrategyPlanner(opts).plan_all(result.view());
        expect_same_report(exact[at(s)], all);

        opts.overhead_budget = total - 1;
        const auto short_by_one =
            StrategyPlanner(opts).plan_all(result.view());
        const ReliefReport &ranked = short_by_one[at(s)];
        EXPECT_LE(totals_of(ranked).overhead, total - 1);
        EXPECT_LT(paid(ranked), paid(all));
        EXPECT_EQ(ranked.decisions.size() - paid(ranked),
                  all.decisions.size() - paid(all))
            << "free decisions never depend on the budget";
    }
}

/** Expects every swap-leg field of @p a and @p b equal. */
void
expect_same_leg(const swap::SwapDecision &a, const swap::SwapDecision &b)
{
    EXPECT_EQ(a.block, b.block);
    EXPECT_EQ(a.slot, b.slot);
    EXPECT_EQ(a.tensor, b.tensor);
    EXPECT_EQ(a.size, b.size);
    EXPECT_EQ(a.gap_start, b.gap_start);
    EXPECT_EQ(a.gap_end, b.gap_end);
    EXPECT_EQ(a.hide_ratio, b.hide_ratio);
    EXPECT_EQ(a.overhead, b.overhead);
}

/**
 * Swap-only relief is the Eq. 1 swap planner, decision by decision,
 * on six workloads (training and serving). At zero budget it keeps
 * exactly the swaps the planner schedules without overhead, so the
 * swap leg honours --safety-factor: a gap that fits the raw round
 * trip but not the headroom has zero stall, and must not slip in as
 * a free decision. At an unlimited budget it keeps exactly what
 * allow_overhead schedules, at factor 1.0 only: above it the planner
 * takes such a gap with zero overhead on purpose (see
 * OverheadSaturatesAtZeroUnderSafetyFactor in tests/swap).
 */
TEST(StrategyPlanner, ZeroBudgetSwapsHonourTheSafetyFactor)
{
    struct Case {
        const char *model;
        int batch;
        bool serve;
    };
    for (const Case &c :
         {Case{"resnet18", 16, false}, Case{"resnet152", 8, false},
          Case{"vgg16", 8, false}, Case{"transformer", 8, false},
          Case{"alexnet", 16, false}, Case{"resnet50", 8, true}}) {
        SCOPED_TRACE(c.model);
        api::WorkloadSpec spec;
        spec.model = c.model;
        spec.batch = c.batch;
        spec.iterations = 3;
        if (c.serve) {
            spec.mode = runtime::SessionMode::kInfer;
            spec.requests = 8;
        }
        const api::Study study = api::Study::run(spec);
        const analysis::TraceView &view = study.view();
        const analysis::LinkBandwidth link{study.device().d2h_bw_bps,
                                           study.device().h2d_bw_bps};

        struct Pair {
            double factor;
            bool allow_overhead;
        };
        std::size_t decisions_at_1 = 0;
        for (const Pair &p : {Pair{1.0, false}, Pair{1.5, false},
                              Pair{4.0, false}, Pair{1.0, true}}) {
            SCOPED_TRACE(p.factor);
            SCOPED_TRACE(p.allow_overhead ? "unlimited" : "budget 0");
            StrategyOptions opts;
            opts.link = link;
            opts.safety_factor = p.factor;
            opts.overhead_budget = p.allow_overhead ? kUnlimitedBudget : 0;
            const auto reports = StrategyPlanner(opts).plan_all(view);
            const ReliefReport &plan = reports[at(Strategy::kSwapOnly)];

            swap::PlannerOptions swap_opts;
            swap_opts.link = link;
            swap_opts.safety_factor = p.factor;
            swap_opts.min_block_bytes = opts.min_block_bytes;
            swap_opts.allow_overhead = p.allow_overhead;
            const auto reference = swap::SwapPlanner(swap_opts).plan(view);

            ASSERT_EQ(plan.decisions.size(), reference.decisions.size());
            for (std::size_t i = 0; i < reference.decisions.size(); ++i) {
                SCOPED_TRACE(i);
                EXPECT_EQ(plan.decisions[i].mechanism, Mechanism::kSwap);
                expect_same_leg(plan.decisions[i],
                                reference.decisions[i]);
            }
            EXPECT_EQ(totals_of(plan, Mechanism::kSwap).bytes,
                      swap::totals_of(reference).bytes);
            EXPECT_EQ(totals_of(plan).covered_bytes,
                      reference.peak_reduction_bytes);
            EXPECT_EQ(totals_of(plan).overhead,
                      swap::totals_of(reference).overhead);
            if (p.allow_overhead) {
                EXPECT_GT(totals_of(plan).overhead, 0u)
                    << "no paid swap on this input";
                continue;
            }
            EXPECT_EQ(totals_of(plan).overhead, 0u);
            if (p.factor == 1.0) {
                decisions_at_1 = reference.decisions.size();
            } else if (std::string(c.model) == "resnet18") {
                EXPECT_LT(reference.decisions.size(), decisions_at_1)
                    << "the factor never bites on this input";
            }
        }
    }
}

/**
 * Each report's link-scheduled numbers against independent
 * executions: every leg's per-swap schedule equals a fresh
 * swap::execute_plan of those legs alone on a new link, and the
 * report's one what-if peak equals the full-sort occupancy oracle
 * over the baseline edges plus the scheduled swap and peer windows
 * plus the recompute windows. A training trace, a two-device NVLink
 * trace (peer legs on a second link) and a serving trace under a
 * 50 ms SLO; unbudgeted and at 50 ms.
 */
TEST(StrategyPlanner, CombinedPeakMatchesTheOccupancyOracle)
{
    struct Case {
        const char *name;
        api::WorkloadSpec spec;
    };
    api::WorkloadSpec train;
    train.model = "resnet18";
    train.batch = 16;
    train.iterations = 2;
    api::WorkloadSpec dp2 = train;
    dp2.devices = 2;
    dp2.topology = "nvlink";
    api::WorkloadSpec serve = train;
    serve.mode = runtime::SessionMode::kInfer;
    serve.requests = 8;
    for (const Case &c : {Case{"train", train}, Case{"dp2", dp2},
                          Case{"serve", serve}}) {
        SCOPED_TRACE(c.name);
        const api::Study study = api::Study::run(c.spec);
        const analysis::TraceView &view = study.view();
        const std::vector<analysis::OccupancyEdge> baseline =
            test_support::sorted_edges_oracle(study.trace());
        StrategyOptions opts;
        opts.link = analysis::LinkBandwidth{study.device().d2h_bw_bps,
                                            study.device().h2d_bw_bps};
        opts.min_block_bytes = 8 * kMB;
        if (c.spec.devices > 1) {
            opts.devices = c.spec.devices;
            opts.interconnect = sim::InterconnectSpec::nvlink();
        }
        if (c.spec.mode == runtime::SessionMode::kInfer)
            opts.latency_budget_ns = 50 * kNsPerMs;
        std::size_t legs_checked = 0;
        for (TimeNs budget : {kUnlimitedBudget, 50 * kNsPerMs}) {
            SCOPED_TRACE(budget);
            opts.overhead_budget = budget;
            for (const ReliefReport &report :
                 StrategyPlanner(opts).plan_all(view)) {
                SCOPED_TRACE(strategy_name(report.strategy));
                if (!report.available)
                    continue;
                std::vector<analysis::OccupancyEdge> edges = baseline;
                swap::SwapPlanReport swap_legs;
                swap::SwapPlanReport peer_legs;
                for (const ReliefDecision &d : report.decisions) {
                    if (d.mechanism == Mechanism::kRecompute) {
                        edges.push_back(
                            {d.gap_start,
                             -static_cast<std::int64_t>(d.size)});
                        edges.push_back(
                            {d.gap_end - d.overhead,
                             static_cast<std::int64_t>(d.size)});
                        continue;
                    }
                    (d.mechanism == Mechanism::kSwap ? swap_legs
                                                     : peer_legs)
                        .decisions.push_back(d);
                }
                sim::LinkScheduler host_link(opts.link.d2h_bps,
                                             opts.link.h2d_bps);
                expect_same_schedule(
                    report.swap_schedule,
                    swap::execute_plan(view, swap_legs, host_link));
                if (!peer_legs.decisions.empty()) {
                    sim::LinkScheduler peer_link(
                        opts.interconnect.peer_bw_bps,
                        opts.interconnect.peer_bw_bps,
                        opts.interconnect.latency_ns);
                    expect_same_schedule(
                        report.peer_schedule,
                        swap::execute_plan(view, peer_legs, peer_link));
                }
                EXPECT_EQ(report.peer_schedule.swaps.size(),
                          peer_legs.decisions.size());
                legs_checked += swap_legs.decisions.size() +
                                peer_legs.decisions.size();
                const std::pair<const swap::LinkSchedule *,
                                const swap::SwapPlanReport *>
                    links[] = {{&report.swap_schedule, &swap_legs},
                               {&report.peer_schedule, &peer_legs}};
                for (const auto &[leg, plan] : links) {
                    ASSERT_EQ(leg->swaps.size(), plan->decisions.size());
                    for (std::size_t i = 0; i < leg->swaps.size(); ++i) {
                        const swap::ExecutedSwap &s = leg->swaps[i];
                        const auto size = static_cast<std::int64_t>(
                            plan->decisions[i].size);
                        if (s.in_start <= s.out_end)
                            continue;
                        edges.push_back({s.out_end, -size});
                        edges.push_back({s.in_start, size});
                    }
                }
                EXPECT_EQ(report.new_peak_bytes,
                          test_support::peak_occupancy(std::move(edges)));
            }
        }
        EXPECT_GT(legs_checked, 0u) << "no link leg was scheduled";
    }
}

/**
 * A decision's producer is an id into its own view's name table. A
 * training study and its CSV reload intern the op names in different
 * orders, so naming a decision through the other study's view would
 * print the wrong op; through its own, both name the same producer.
 */
TEST(StrategyPlanner, ProducersAreNamedThroughTheirOwnView)
{
    api::WorkloadSpec spec;
    spec.model = "resnet18";
    spec.batch = 16;
    spec.iterations = 2;
    api::StudyOptions options;
    options.relief.min_block_bytes = 8 * kMB;
    const api::Study live = api::Study::run(spec, options);
    std::stringstream csv;
    trace::write_csv(live.trace(), csv);
    const api::Study reloaded = api::Study::from_trace(
        trace::read_csv(csv), live.device(), options);

    const ReliefReport &a = live.relief(Strategy::kRecomputeOnly);
    const ReliefReport &b = reloaded.relief(Strategy::kRecomputeOnly);
    ASSERT_EQ(a.decisions.size(), b.decisions.size());
    ASSERT_GT(totals_of(a, Mechanism::kRecompute).decisions, 0u);
    std::size_t renumbered = 0;
    for (std::size_t i = 0; i < a.decisions.size(); ++i) {
        SCOPED_TRACE(i);
        const ReliefDecision &x = a.decisions[i];
        const ReliefDecision &y = b.decisions[i];
        ASSERT_EQ(x.mechanism, Mechanism::kRecompute);
        ASSERT_EQ(y.mechanism, Mechanism::kRecompute);
        EXPECT_EQ(x.gap_start, y.gap_start);
        EXPECT_EQ(x.overhead, y.overhead);
        EXPECT_FALSE(live.view().op_name(x.producer).empty());
        EXPECT_EQ(live.view().op_name(x.producer),
                  reloaded.view().op_name(y.producer));
        if (x.producer != y.producer)
            ++renumbered;
    }
    EXPECT_GT(renumbered, 0u)
        << "the two name tables agree, so naming through the wrong "
           "view would pass unnoticed";
}

}  // namespace
}  // namespace relief
}  // namespace pinpoint
