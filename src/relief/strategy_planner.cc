#include "relief/strategy_planner.h"

#include <algorithm>
#include <array>
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

/** Every Mechanism, in preference order: on full ties the earliest
 * wins, so pure and hybrid selections stay comparable. */
constexpr std::array<Mechanism, 3> kMechanisms = {
    Mechanism::kSwap, Mechanism::kRecompute, Mechanism::kPeer};

/** @return the slot of @p m in a per-Mechanism array. */
constexpr std::size_t
index_of(Mechanism m)
{
    return static_cast<std::size_t>(m);
}

/** How one mechanism would relieve one candidate. */
struct Option {
    /** The mechanism may take the candidate at all. */
    bool ok = false;
    /** Predicted stall (swap, peer) or producer re-run (recompute). */
    TimeNs overhead = 0;
    /** The block is off the device at the original peak instant. */
    bool covers_peak = false;
    /** Swap and peer: gap / round trip; 0 for recompute. */
    double hide_ratio = 0.0;
};

/** One (block, access-gap) relief candidate with every option. */
struct Candidate {
    const analysis::BlockLifetime *block = nullptr;
    /** Timeline slot of @p block: the decisions carry it, and it is
     * the block's slot in the producer index. */
    std::size_t slot = 0;
    TimeNs gap_start = 0;
    TimeNs gap_end = 0;
    /** One option per Mechanism, indexed by index_of(). */
    std::array<Option, kMechanisms.size()> options;
};

/** Adds one decision of @p size bytes to @p t. */
void
add(MechanismTotals &t, std::size_t size, TimeNs overhead, bool covers_peak)
{
    ++t.decisions;
    t.bytes += size;
    t.covered_bytes += covers_peak ? size : 0;
    t.overhead += overhead;
}

/**
 * Aggregate outcome of one selection, for strategy comparison. The
 * selection marks candidates in place of listing them, so assembly
 * walks the candidates in their one (gap_start, block) order.
 */
struct Selection {
    /** Mechanism chosen per candidate (same index), if any. */
    std::vector<std::optional<Mechanism>> picks;
    /** Candidates chosen per Mechanism, indexed by index_of(). */
    std::array<std::size_t, kMechanisms.size()> chosen = {};
    /** The sums a report of these picks has (totals_of). */
    MechanismTotals totals;
};

/** Everything plan_all() derives from a trace, strategy-agnostic. */
struct PlanContext {
    /** The run's shared sub-indices, borrowed from the TraceView —
     * never private rebuilds (the five-sites-per-run bug class). */
    const analysis::Timeline &timeline;
    const analysis::ProducerIndex &producers;
    std::vector<Candidate> candidates;

    explicit PlanContext(const analysis::TraceView &view)
        : timeline(view.timeline()), producers(view.producers())
    {
    }
};

/**
 * The option of moving @p c's block out over @p link and back within
 * its gap: the Eq. 1 evaluation shared with swap::SwapPlanner. A
 * round trip that fits its gap but misses the safety headroom has
 * zero raw stall; offering it would make it free and void the
 * factor, so it is not an option at all (the swap planner rejects it
 * too, unless allow_overhead makes it take every gap).
 */
Option
transfer_option(const Candidate &c, TimeNs peak_time,
                const analysis::LinkBandwidth &link, double safety_factor,
                TimeNs latency_ns)
{
    const swap::GapEvaluation e = swap::evaluate_swap_gap(
        c.block->size, c.gap_start, c.gap_end, peak_time, link,
        safety_factor, latency_ns);
    return {e.hideable || e.overhead > 0, e.overhead, e.covers_peak,
            e.hide_ratio};
}

/**
 * Enumerates every (block, gap) candidate with every option priced:
 * the Eq. 1 swap and peer evaluations and the
 * measured-forward-time recompute. Emits the candidates in the
 * (gap_start, block) order of analysis::access_gaps — unique per
 * candidate, and the order of a report's decisions — so no
 * selection is ever sorted again.
 */
void
enumerate_candidates(PlanContext &ctx, const analysis::TraceView &view,
                     const StrategyOptions &options)
{
    // Peer legs ride the interconnect's symmetric bandwidth plus its
    // per-transfer latency; only priceable when the topology has a
    // peer to offload to.
    const analysis::LinkBandwidth peer_link{
        options.interconnect.peer_bw_bps,
        options.interconnect.peer_bw_bps};
    const TimeNs peak_time = ctx.timeline.peak_time();
    const std::vector<analysis::AccessGap> gaps =
        analysis::access_gaps(view, options.min_block_bytes);
    ctx.candidates.reserve(gaps.size());
    for (const analysis::AccessGap &g : gaps) {
        Candidate &c = ctx.candidates.emplace_back();
        c.block = &ctx.timeline.blocks()[g.slot];
        c.slot = g.slot;
        c.gap_start = g.start;
        c.gap_end = g.end;
        c.options[index_of(Mechanism::kSwap)] = transfer_option(
            c, peak_time, options.link, options.safety_factor, 0);
        if (options.peer_available())
            c.options[index_of(Mechanism::kPeer)] = transfer_option(
                c, peak_time, peer_link, options.safety_factor,
                options.interconnect.latency_ns);

        // Recompute option: only for blocks whose priceable forward
        // producer's re-run fits inside the gap; the block is live
        // again while the producer replays, so the absence window
        // ends at gap_end - cost.
        const TimeNs cost = ctx.producers[g.slot].forward_ns;
        if (cost > 0 && cost < g.end - g.start)
            c.options[index_of(Mechanism::kRecompute)] = {
                true, cost,
                g.start <= peak_time && peak_time < g.end - cost,
                0.0};
    }
}

/** @return true when strategy @p s may assign mechanism @p m. */
bool
allows(Strategy s, Mechanism m)
{
    switch (s) {
      case Strategy::kSwapOnly: return m == Mechanism::kSwap;
      case Strategy::kRecomputeOnly: return m == Mechanism::kRecompute;
      case Strategy::kPeerOnly: return m == Mechanism::kPeer;
      case Strategy::kHybrid: return true;
    }
    return false;
}

/**
 * Greedy selection over the candidates with the mechanisms of
 * @p strategy allowed. Zero-overhead options (hideable swaps and
 * offloads) are always taken; overhead-bearing options are ranked by
 * bytes-freed-per-ns and taken while they fit the budget and, when
 * @p latency_cap is set (> 0), their single-decision stall stays
 * within the per-request latency SLO.
 */
Selection
select(const std::vector<Candidate> &candidates, Strategy strategy,
       TimeNs budget, TimeNs latency_cap)
{
    Selection sel;
    sel.picks.resize(candidates.size());
    auto take = [&](std::size_t i, Mechanism m) {
        const Candidate &c = candidates[i];
        const Option &o = c.options[index_of(m)];
        sel.picks[i] = m;
        ++sel.chosen[index_of(m)];
        add(sel.totals, c.block->size, o.overhead, o.covers_peak);
    };

    /** An overhead-bearing choice the SLO admits. */
    struct Paid {
        std::size_t index = 0;
        Mechanism mechanism = Mechanism::kSwap;
        TimeNs overhead = 0;
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
        // or at equal coverage with strictly lower overhead.
        std::optional<Mechanism> best;
        for (Mechanism m : kMechanisms) {
            const Option &o = c.options[index_of(m)];
            if (!o.ok || !allows(strategy, m))
                continue;
            if (best) {
                const Option &b = c.options[index_of(*best)];
                const bool wins = o.covers_peak == b.covers_peak
                                      ? o.overhead < b.overhead
                                      : o.covers_peak;
                if (!wins)
                    continue;
            }
            best = m;
        }
        if (!best)
            continue;
        const TimeNs overhead = c.options[index_of(*best)].overhead;
        if (overhead == 0) {
            take(i, *best);
            continue;
        }
        // A serving SLO caps each decision alone: one stall lands
        // inside one request window, not across an iteration.
        if (latency_cap > 0 && overhead > latency_cap)
            continue;
        paid.push_back({i, *best, overhead,
                        static_cast<double>(c.block->size) /
                            static_cast<double>(overhead)});
        if (all_fit && overhead <= budget - admissible)
            admissible += overhead;
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
            take(p.index, p.mechanism);
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
        if (p.overhead <= budget - sel.totals.overhead)
            take(p.index, p.mechanism);
    }
    return sel;
}

/** @return true when @p a beats @p b for the hybrid guarantee. */
bool
better(const Selection &a, const Selection &b)
{
    if (a.totals.covered_bytes != b.totals.covered_bytes)
        return a.totals.covered_bytes > b.totals.covered_bytes;
    if (a.totals.overhead != b.totals.overhead)
        return a.totals.overhead < b.totals.overhead;
    return a.totals.bytes > b.totals.bytes;
}

/**
 * Turns a selection into the full report: decisions in candidate
 * order, swap and peer legs scheduled on fresh shared links, and
 * one what-if occupancy peak over every leg.
 */
ReliefReport
assemble(const PlanContext &ctx, const StrategyOptions &options,
         const analysis::TraceView &view, const Selection &sel)
{
    ReliefReport report;

    // One walk over the picks fills the decisions and, alongside,
    // what the links and the what-if peak need: each swap and peer
    // leg where it stands in the report (the reserve keeps it
    // there), and each recompute absence window, whose starts come
    // in decision (so gap-start) order and whose ends are sorted
    // once below.
    const auto chosen = [&](Mechanism m) {
        return sel.chosen[index_of(m)];
    };
    report.decisions.reserve(sel.totals.decisions);
    std::vector<const swap::SwapDecision *> swap_legs;
    swap_legs.reserve(chosen(Mechanism::kSwap));
    std::vector<const swap::SwapDecision *> peer_legs;
    peer_legs.reserve(chosen(Mechanism::kPeer));
    std::vector<analysis::OccupancyEdge> edges;
    edges.reserve(2 * sel.totals.decisions);
    std::vector<analysis::OccupancyEdge> recompute_ends;
    recompute_ends.reserve(chosen(Mechanism::kRecompute));
    for (std::size_t i = 0; i < ctx.candidates.size(); ++i) {
        if (!sel.picks[i])
            continue;
        const Candidate &c = ctx.candidates[i];
        const Mechanism m = *sel.picks[i];
        const Option &o = c.options[index_of(m)];
        ReliefDecision &d = report.decisions.emplace_back();
        d.mechanism = m;
        d.block = c.block->block;
        d.slot = c.slot;
        d.tensor = c.block->tensor;
        d.size = c.block->size;
        d.gap_start = c.gap_start;
        d.gap_end = c.gap_end;
        d.hide_ratio = o.hide_ratio;
        d.overhead = o.overhead;
        d.covers_peak = o.covers_peak;
        const auto size = static_cast<std::int64_t>(d.size);
        switch (m) {
          case Mechanism::kSwap:
            swap_legs.push_back(&d);
            break;
          case Mechanism::kRecompute:
            d.producer = ctx.producers[c.slot].op;
            edges.push_back({d.gap_start, -size});
            recompute_ends.push_back({d.gap_end - d.overhead, size});
            report.measured_overhead += d.overhead;
            break;
          case Mechanism::kPeer:
            peer_legs.push_back(&d);
            break;
        }
    }
    std::sort(recompute_ends.begin(), recompute_ends.end(),
              analysis::edge_before);
    edges.insert(edges.end(), recompute_ends.begin(),
                 recompute_ends.end());

    // Swap legs contend on the shared host link, peer legs on the
    // interconnect (a distinct link, so offloads do not steal swap
    // bandwidth); the recompute legs occupy the compute stream and
    // leave both links untouched.
    sim::LinkScheduler host_link(options.link.d2h_bps,
                                 options.link.h2d_bps);
    report.swap_schedule =
        swap::schedule_plan(view, swap_legs, host_link);
    if (!peer_legs.empty()) {
        sim::LinkScheduler peer_link(
            options.interconnect.peer_bw_bps,
            options.interconnect.peer_bw_bps,
            options.interconnect.latency_ns);
        report.peer_schedule =
            swap::schedule_plan(view, peer_legs, peer_link);
    }

    // Combined occupancy: baseline lifetimes, minus the *scheduled*
    // swap/peer residency windows, minus the compute-adjusted
    // recompute absence windows — one what-if peak for the report,
    // over few sorted runs: the recompute starts and ends, then each
    // link schedule's swap-out and swap-in runs.
    swap::append_residency_edges(report.swap_schedule, swap_legs,
                                 edges);
    swap::append_residency_edges(report.peer_schedule, peer_legs,
                                 edges);
    report.measured_overhead += report.swap_schedule.measured_stall +
                                report.peer_schedule.measured_stall;
    report.new_peak_bytes = ctx.timeline.peak_with(std::move(edges));
    report.measured_peak_reduction = swap::peak_saving(
        ctx.timeline.peak_bytes(), report.new_peak_bytes);
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

MechanismTotals
totals_of(const ReliefReport &report, std::optional<Mechanism> m)
{
    MechanismTotals t;
    for (const ReliefDecision &d : report.decisions) {
        if (!m || d.mechanism == *m)
            add(t, d.size, d.overhead, d.covers_peak);
    }
    return t;
}

StrategyPlanner::StrategyPlanner(StrategyOptions options)
    : options_(std::move(options))
{
    PP_CHECK(options_.link.d2h_bps > 0 && options_.link.h2d_bps > 0,
             "strategy planner needs positive link bandwidths");
    PP_CHECK(options_.safety_factor >= 1.0,
             "safety_factor must be >= 1.0");
}

std::array<ReliefReport, kNumStrategies>
StrategyPlanner::plan_all(const analysis::TraceView &view) const
{
    // One trace analysis and candidate enumeration serves every
    // strategy; the hybrid guard reuses the pure selections
    // instead of recomputing them.
    PlanContext ctx(view);
    enumerate_candidates(ctx, view, options_);
    std::array<Selection, kNumStrategies> selections;
    for (std::size_t i = 0; i < selections.size(); ++i)
        selections[i] =
            select(ctx.candidates, static_cast<Strategy>(i),
                   options_.overhead_budget, options_.latency_budget_ns);
    auto selection = [&](Strategy s) -> const Selection & {
        return selections[static_cast<std::size_t>(s)];
    };
    // Without a peer, no candidate has a peer option: the peer-only
    // selection is empty, and its report is marked unavailable so
    // comparisons skip it instead of reading its zero overhead as a
    // free win.
    const bool peer = options_.peer_available();

    // The hybrid guard: adopt a pure selection that beats the union.
    constexpr Strategy kPure[] = {Strategy::kSwapOnly,
                                  Strategy::kRecomputeOnly,
                                  Strategy::kPeerOnly};
    auto comparable = [peer](Strategy pure) {
        return pure != Strategy::kPeerOnly || peer;
    };
    Strategy hybrid = Strategy::kHybrid;
    for (Strategy pure : kPure) {
        if (comparable(pure) && better(selection(pure), selection(hybrid)))
            hybrid = pure;
    }
    // A union that picks exactly what one pure selection picks (a
    // serving trace often offers nothing but swaps) assembles into
    // the same report, so it takes that one too.
    for (Strategy pure : kPure) {
        if (hybrid == Strategy::kHybrid && comparable(pure) &&
            selection(pure).picks == selection(Strategy::kHybrid).picks)
            hybrid = pure;
    }

    // An adopted pure selection was already assembled, so the hybrid
    // report is a copy of it, not a second link schedule.
    std::array<ReliefReport, kNumStrategies> reports;
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const auto s = static_cast<Strategy>(i);
        if (s == Strategy::kHybrid && hybrid != Strategy::kHybrid)
            reports[i] = reports[static_cast<std::size_t>(hybrid)];
        else
            reports[i] = assemble(ctx, options_, view, selection(s));
        reports[i].strategy = s;
    }
    reports[static_cast<std::size_t>(Strategy::kPeerOnly)].available =
        peer;
    return reports;
}

}  // namespace relief
}  // namespace pinpoint
