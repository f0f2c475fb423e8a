#include "relief/strategy_planner.h"

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "analysis/producers.h"
#include "analysis/swap_model.h"
#include "analysis/timeline.h"
#include "analysis/trace_view.h"
#include "core/check.h"
#include "core/format.h"
#include "core/types.h"
#include "sim/link_scheduler.h"
#include "swap/executor.h"
#include "swap/planner.h"

namespace pinpoint {
namespace relief {
namespace {

/** One (block, access-gap) relief candidate with every option. */
struct Candidate {
    const analysis::BlockLifetime *block = nullptr;
    /** Timeline slot of @p block: the decisions carry it. */
    std::size_t slot = 0;
    TimeNs gap_start = 0;
    TimeNs gap_end = 0;
    TimeNs gap = 0;
    // Swap option.
    bool swap_ok = false;
    TimeNs swap_overhead = 0;
    bool swap_covers = false;
    double hide_ratio = 0.0;
    // Recompute option.
    bool rec_ok = false;
    TimeNs rec_cost = 0;
    bool rec_covers = false;
    const analysis::Producer *producer = nullptr;
    // Peer-offload option (multi-device topologies only).
    bool peer_ok = false;
    TimeNs peer_overhead = 0;
    bool peer_covers = false;
    double peer_hide_ratio = 0.0;
};

/** The option of a candidate for one mechanism. */
struct Choice {
    Mechanism mechanism = Mechanism::kSwap;
    TimeNs overhead = 0;
    bool covers_peak = false;
};

/** @return @p c's option for mechanism @p m. */
Choice
option(const Candidate &c, Mechanism m)
{
    switch (m) {
      case Mechanism::kSwap: return {m, c.swap_overhead, c.swap_covers};
      case Mechanism::kRecompute: return {m, c.rec_cost, c.rec_covers};
      case Mechanism::kPeer: return {m, c.peer_overhead, c.peer_covers};
    }
    return {};
}

/**
 * Aggregate outcome of one selection, for strategy comparison. The
 * selection marks candidates in place of listing them, so assembly
 * walks the candidates in their one (gap_start, block) order.
 */
struct Selection {
    /** Mechanism chosen per candidate (same index), if any. */
    std::vector<std::optional<Mechanism>> picks;
    std::size_t chosen = 0;
    std::size_t peak_reduction = 0;
    TimeNs overhead = 0;
    std::size_t total_bytes = 0;
};

/** Everything plan_all() derives from a trace, strategy-agnostic. */
struct PlanContext {
    /** The run's shared sub-indices, borrowed from the TraceView —
     * never private rebuilds (the five-sites-per-run bug class). */
    const analysis::Timeline &timeline;
    const analysis::ProducerIndex &producers;
    std::vector<Candidate> candidates;
    TimeNs peak_time = 0;
    std::size_t original_peak = 0;

    explicit PlanContext(const analysis::TraceView &view)
        : timeline(view.timeline()), producers(view.producers())
    {
        peak_time = timeline.peak_time();
        original_peak = timeline.peak_bytes();
    }
};

/**
 * @return true when @p e fits its gap without stall yet misses the
 * @p safety_factor headroom: neither hideable nor priced.
 */
bool
unsafe(const swap::GapEvaluation &e, double safety_factor)
{
    return e.hide_ratio < safety_factor && e.overhead == 0;
}

/**
 * Enumerates every (block, gap) candidate with both options priced:
 * the Eq. 1 swap evaluation (shared with swap::SwapPlanner) and the
 * measured-forward-time recompute. Emits the candidates in the
 * (gap_start, block) order of analysis::access_gaps — unique per
 * candidate, and the order of a report's decisions — so no
 * selection is ever sorted again.
 */
void
enumerate_candidates(PlanContext &ctx, const analysis::TraceView &view,
                     const StrategyOptions &options)
{
    const std::vector<analysis::AccessGap> gaps =
        analysis::access_gaps(view, options.min_block_bytes);
    ctx.candidates.reserve(gaps.size());
    for (const analysis::AccessGap &g : gaps) {
        const analysis::BlockLifetime &b = ctx.timeline.blocks()[g.slot];
        // Block s of the Timeline is slot s of the producer index.
        const analysis::Producer &prod = ctx.producers[g.slot];
        Candidate c;
        c.block = &b;
        c.slot = g.slot;
        c.gap_start = g.start;
        c.gap_end = g.end;
        c.gap = g.end - g.start;

        // Swap option: the same evaluation the swap planner uses
        // (hide ratio, saturating overhead, transfer-adjusted
        // residency window for the peak credit).
        const swap::GapEvaluation e = swap::evaluate_swap_gap(
            b.size, g.start, g.end, options.link,
            options.safety_factor);
        // A round trip that fits the gap but misses the safety
        // headroom has zero raw stall; offering it would make it
        // free and void the factor, so it is not an option at all
        // (the swap planner rejects it too, unless allow_overhead
        // makes it take every gap).
        c.swap_ok = !unsafe(e, options.safety_factor);
        c.hide_ratio = e.hide_ratio;
        c.swap_overhead = e.overhead;
        c.swap_covers =
            e.out_done <= ctx.peak_time && ctx.peak_time < e.in_start;

        // Recompute option: only for blocks whose priceable forward
        // producer's re-run fits inside the gap; the block is live
        // again while the producer replays, so the absence window
        // ends at gap_end - cost.
        if (prod.forward_ns > 0 && prod.forward_ns < c.gap) {
            const TimeNs cost = prod.forward_ns;
            c.rec_ok = true;
            c.rec_cost = cost;
            c.rec_covers = g.start <= ctx.peak_time &&
                           ctx.peak_time < g.end - cost;
            c.producer = &prod;
        }

        // Peer option: the same gap evaluation as swap, but on the
        // interconnect's symmetric bandwidth plus its per-transfer
        // latency; only priceable when the topology has a peer to
        // offload to.
        if (options.peer_available()) {
            const analysis::LinkBandwidth peer_link{
                options.interconnect.peer_bw_bps,
                options.interconnect.peer_bw_bps};
            const swap::GapEvaluation pe = swap::evaluate_swap_gap(
                b.size, g.start, g.end, peer_link,
                options.safety_factor, options.interconnect.latency_ns);
            c.peer_ok = !unsafe(pe, options.safety_factor);
            c.peer_hide_ratio = pe.hide_ratio;
            c.peer_overhead = pe.overhead;
            c.peer_covers = pe.out_done <= ctx.peak_time &&
                            ctx.peak_time < pe.in_start;
        }
        ctx.candidates.push_back(c);
    }
}

/** Which mechanisms a selection may assign. */
struct AllowedMechanisms {
    bool swap = false;
    bool recompute = false;
    bool peer = false;
};

/**
 * Greedy selection over the candidates with the given mechanisms
 * allowed. Zero-overhead options (hideable swaps and offloads) are
 * always taken; overhead-bearing options are ranked by
 * bytes-freed-per-ns and taken while they fit the budget and, when
 * @p latency_cap is set (> 0), their single-decision stall stays
 * within the per-request latency SLO.
 */
Selection
select(const std::vector<Candidate> &candidates,
       const AllowedMechanisms &allow, TimeNs budget,
       TimeNs latency_cap)
{
    Selection sel;
    sel.picks.resize(candidates.size());
    auto take = [&](std::size_t i, const Choice &choice) {
        const std::size_t size = candidates[i].block->size;
        sel.picks[i] = choice.mechanism;
        ++sel.chosen;
        sel.overhead += choice.overhead;
        sel.total_bytes += size;
        if (choice.covers_peak)
            sel.peak_reduction += size;
    };

    /** An overhead-bearing choice the SLO admits. */
    struct Paid {
        std::size_t index = 0;
        Choice choice;
        /** Bytes freed per ns of overhead: the greedy rank. */
        double score = 0.0;
    };
    std::vector<Paid> paid;
    // Sum of the paid overheads while they all fit the budget.
    TimeNs admissible = 0;
    bool all_fit = true;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        const Candidate &c = candidates[i];
        // Every allowed option of this candidate, in mechanism
        // preference order: a later option replaces the incumbent
        // only when it covers the peak and the incumbent does not,
        // or at equal coverage with strictly lower overhead — so on
        // full ties the earliest mechanism wins and pure and hybrid
        // selections stay comparable.
        std::optional<Choice> best;
        auto consider = [&](Mechanism m) {
            const Choice o = option(c, m);
            if (best && o.covers_peak == best->covers_peak &&
                o.overhead >= best->overhead)
                return;
            if (best && o.covers_peak != best->covers_peak &&
                !o.covers_peak)
                return;
            best = o;
        };
        if (allow.swap && c.swap_ok)
            consider(Mechanism::kSwap);
        if (allow.recompute && c.rec_ok)
            consider(Mechanism::kRecompute);
        if (allow.peer && c.peer_ok)
            consider(Mechanism::kPeer);
        if (!best)
            continue;
        if (best->overhead == 0) {
            take(i, *best);
            continue;
        }
        // A serving SLO caps each decision alone: one stall lands
        // inside one request window, not across an iteration.
        if (latency_cap > 0 && best->overhead > latency_cap)
            continue;
        paid.push_back({i, *best,
                        static_cast<double>(c.block->size) /
                            static_cast<double>(best->overhead)});
        if (all_fit && best->overhead <= budget - admissible)
            admissible += best->overhead;
        else
            all_fit = false;
    }

    // When every admissible paid choice fits the budget together,
    // the greedy takes them all whatever their rank, so only an
    // overrun budget pays for the ranking: highest bytes/ns first;
    // smaller items later in the ranking may still fit a
    // nearly-spent budget, so the scan continues past the first miss.
    if (all_fit) {
        for (const auto &p : paid)
            take(p.index, p.choice);
        return sel;
    }
    std::sort(paid.begin(), paid.end(),
              [&](const Paid &a, const Paid &b) {
                  if (a.score != b.score)
                      return a.score > b.score;
                  const Candidate &ca = candidates[a.index];
                  const Candidate &cb = candidates[b.index];
                  if (ca.block->block != cb.block->block)
                      return ca.block->block < cb.block->block;
                  return ca.gap_start < cb.gap_start;
              });
    for (const auto &p : paid) {
        if (p.choice.overhead <= budget - sel.overhead)
            take(p.index, p.choice);
    }
    return sel;
}

/** @return true when @p a beats @p b for the hybrid guarantee. */
bool
better(const Selection &a, const Selection &b)
{
    if (a.peak_reduction != b.peak_reduction)
        return a.peak_reduction > b.peak_reduction;
    if (a.overhead != b.overhead)
        return a.overhead < b.overhead;
    return a.total_bytes > b.total_bytes;
}

/**
 * Turns a selection into the full report: decisions in candidate
 * order, swap and peer legs scheduled on fresh shared links, and
 * one what-if occupancy peak over every leg.
 */
ReliefReport
assemble(const PlanContext &ctx, const StrategyOptions &options,
         const analysis::TraceView &view, Strategy strategy,
         const Selection &sel)
{
    ReliefReport report;
    report.strategy = strategy;
    report.original_peak_bytes = ctx.original_peak;

    report.decisions.reserve(sel.chosen);
    for (std::size_t i = 0; i < ctx.candidates.size(); ++i) {
        if (!sel.picks[i])
            continue;
        const Candidate &c = ctx.candidates[i];
        const Choice choice = option(c, *sel.picks[i]);
        ReliefDecision &d = report.decisions.emplace_back();
        d.mechanism = choice.mechanism;
        d.block = c.block->block;
        d.slot = c.slot;
        d.tensor = c.block->tensor;
        d.size = c.block->size;
        d.gap_start = c.gap_start;
        d.gap_end = c.gap_end;
        d.gap = c.gap;
        d.overhead = choice.overhead;
        d.covers_peak = choice.covers_peak;
        switch (choice.mechanism) {
          case Mechanism::kSwap:
            d.hide_ratio = c.hide_ratio;
            ++report.swap_decisions;
            report.total_swapped_bytes += c.block->size;
            break;
          case Mechanism::kRecompute:
            d.producer = view.op_name(c.producer->op);
            d.recompute_cost = c.rec_cost;
            ++report.recompute_decisions;
            report.total_recomputed_bytes += c.block->size;
            break;
          case Mechanism::kPeer:
            d.hide_ratio = c.peer_hide_ratio;
            ++report.peer_decisions;
            report.total_peer_bytes += c.block->size;
            break;
        }
        report.predicted_overhead += choice.overhead;
        if (choice.covers_peak)
            report.peak_reduction_bytes += c.block->size;
    }

    // Swap legs contend on the shared host link, peer legs on the
    // interconnect (a distinct link, so offloads do not steal swap
    // bandwidth); the recompute legs occupy the compute stream and
    // leave both links untouched.
    auto leg_plan = [&](Mechanism mechanism, std::size_t count) {
        swap::SwapPlanReport legs;
        legs.decisions.reserve(count);
        for (const auto &d : report.decisions) {
            // Sliced to its swap::SwapDecision leg record.
            if (d.mechanism == mechanism)
                legs.decisions.push_back(d);
        }
        return legs;
    };
    sim::LinkScheduler host_link(options.link.d2h_bps,
                                 options.link.h2d_bps);
    report.swap_schedule = swap::schedule_plan(
        view, leg_plan(Mechanism::kSwap, report.swap_decisions),
        host_link);
    if (report.peer_decisions > 0) {
        sim::LinkScheduler peer_link(
            options.interconnect.peer_bw_bps,
            options.interconnect.peer_bw_bps,
            options.interconnect.latency_ns);
        report.peer_schedule = swap::schedule_plan(
            view, leg_plan(Mechanism::kPeer, report.peer_decisions),
            peer_link);
    }

    // Combined occupancy: baseline lifetimes, minus the *scheduled*
    // swap/peer residency windows, minus the compute-adjusted
    // recompute absence windows — one what-if peak for the report.
    std::vector<analysis::OccupancyEdge> edges;
    edges.reserve(report.decisions.size() * 2);
    for (const auto &d : report.decisions) {
        if (d.mechanism != Mechanism::kRecompute)
            continue;
        edges.push_back(
            {d.gap_start, -static_cast<std::int64_t>(d.size)});
        edges.push_back({d.gap_end - d.recompute_cost,
                         static_cast<std::int64_t>(d.size)});
        report.measured_overhead += d.recompute_cost;
    }
    swap::append_residency_edges(report.swap_schedule, edges);
    swap::append_residency_edges(report.peer_schedule, edges);
    report.measured_overhead += report.swap_schedule.measured_stall +
                                report.peer_schedule.measured_stall;
    report.new_peak_bytes = ctx.timeline.peak_with(std::move(edges));
    report.measured_peak_reduction =
        report.original_peak_bytes > report.new_peak_bytes
            ? report.original_peak_bytes - report.new_peak_bytes
            : 0;
    return report;
}

}  // namespace

const char *
strategy_name(Strategy s)
{
    switch (s) {
      case Strategy::kSwapOnly: return "swap";
      case Strategy::kRecomputeOnly: return "recompute";
      case Strategy::kPeerOnly: return "peer";
      case Strategy::kHybrid: return "hybrid";
    }
    return "unknown";
}

Strategy
strategy_from_name(const std::string &name)
{
    std::vector<std::string> known;
    for (int i = 0; i < kNumStrategies; ++i) {
        const auto s = static_cast<Strategy>(i);
        if (name == strategy_name(s))
            return s;
        known.push_back(strategy_name(s));
    }
    // Strategy names are user input (the relief --strategy flag):
    // one typed usage error with the allocator/mode/arrival wording.
    throw UsageError("unknown strategy '" + name +
                     "' (known: " + join_names(known) + ")");
}

const char *
mechanism_name(Mechanism m)
{
    switch (m) {
      case Mechanism::kSwap: return "swap";
      case Mechanism::kRecompute: return "recompute";
      case Mechanism::kPeer: return "peer";
    }
    return "unknown";
}

StrategyPlanner::StrategyPlanner(StrategyOptions options)
    : options_(std::move(options))
{
    PP_CHECK(options_.link.d2h_bps > 0 && options_.link.h2d_bps > 0,
             "strategy planner needs positive link bandwidths");
    PP_CHECK(options_.safety_factor >= 1.0,
             "safety_factor must be >= 1.0");
}

namespace {

/** The peer-only report on a topology with no peer: empty, marked
 * unavailable so comparisons skip it instead of reading its zero
 * overhead as a free win. */
ReliefReport
unavailable_report(const PlanContext &ctx, Strategy strategy)
{
    ReliefReport report;
    report.strategy = strategy;
    report.available = false;
    report.original_peak_bytes = ctx.original_peak;
    report.new_peak_bytes = ctx.original_peak;
    return report;
}

}  // namespace

std::array<ReliefReport, kNumStrategies>
StrategyPlanner::plan_all(const analysis::TraceView &view) const
{
    // One trace analysis and candidate enumeration serves every
    // strategy; the hybrid guard reuses the pure selections
    // instead of recomputing them.
    PlanContext ctx(view);
    enumerate_candidates(ctx, view, options_);
    const TimeNs budget = options_.overhead_budget;
    const TimeNs cap = options_.latency_budget_ns;
    const bool peer = options_.peer_available();
    const Selection swap_only =
        select(ctx.candidates, {true, false, false}, budget, cap);
    const Selection rec_only =
        select(ctx.candidates, {false, true, false}, budget, cap);
    const Selection peer_only =
        peer ? select(ctx.candidates, {false, false, true}, budget,
                      cap)
             : Selection{};
    const Selection united =
        select(ctx.candidates, {true, true, peer}, budget, cap);
    // The hybrid guard: adopt a pure selection that beats the
    // union. An adopted pure selection was already assembled, so the
    // hybrid report is a copy of it, not a second link schedule.
    Strategy hybrid = Strategy::kHybrid;
    const Selection *best = &united;
    auto adopt = [&](const Selection &pure, Strategy strategy) {
        if (better(pure, *best)) {
            best = &pure;
            hybrid = strategy;
        }
    };
    adopt(swap_only, Strategy::kSwapOnly);
    adopt(rec_only, Strategy::kRecomputeOnly);
    if (peer)
        adopt(peer_only, Strategy::kPeerOnly);

    std::array<ReliefReport, kNumStrategies> reports;
    auto slot = [&](Strategy s) -> ReliefReport & {
        return reports[static_cast<std::size_t>(s)];
    };
    slot(Strategy::kSwapOnly) = assemble(
        ctx, options_, view, Strategy::kSwapOnly, swap_only);
    slot(Strategy::kRecomputeOnly) = assemble(
        ctx, options_, view, Strategy::kRecomputeOnly, rec_only);
    slot(Strategy::kPeerOnly) =
        peer ? assemble(ctx, options_, view, Strategy::kPeerOnly,
                        peer_only)
             : unavailable_report(ctx, Strategy::kPeerOnly);
    if (hybrid == Strategy::kHybrid) {
        slot(Strategy::kHybrid) = assemble(
            ctx, options_, view, Strategy::kHybrid, united);
    } else {
        slot(Strategy::kHybrid) = slot(hybrid);
        slot(Strategy::kHybrid).strategy = Strategy::kHybrid;
    }
    return reports;
}

}  // namespace relief
}  // namespace pinpoint
