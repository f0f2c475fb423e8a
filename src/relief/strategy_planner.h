/**
 * @file
 * Unified memory-relief planner: searches over swap-only,
 * recompute-only, and hybrid per-tensor assignments, turning the
 * repo's two relief mechanisms into one strategy engine.
 *
 * Every (block, access-gap) candidate can be relieved three ways:
 *
 *   - swap      — move the block over the shared PCIe link and back
 *                 (free when the Eq. 1 bound hides both legs, a
 *                 stall otherwise);
 *   - recompute — drop the block and re-run its producing forward
 *                 op (always costs that op's measured forward time,
 *                 but touches no link bandwidth at all);
 *   - peer      — offload the block to a peer device's spare DRAM
 *                 over the topology's interconnect: the same Eq. 1
 *                 arithmetic as swap, but on the peer link's
 *                 bandwidth and per-transfer latency, leaving the
 *                 host PCIe link untouched. Only available on
 *                 multi-device topologies.
 *
 * Selection is greedy by bytes-freed-per-nanosecond-of-overhead
 * under a total overhead budget; zero-overhead hideable swaps are
 * always taken. The hybrid strategy additionally guarantees it is
 * never worse than either pure strategy at the same budget: it
 * evaluates the pure selections too and adopts the best, so
 * "hybrid >= max(swap-only, recompute-only)" holds structurally.
 *
 * Swap legs of the chosen assignment are then scheduled on the
 * shared full-duplex sim::LinkScheduler — same-direction transfers
 * serialize, so the report's measured numbers include the link
 * contention a per-decision cost model cannot see.
 */
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "analysis/producers.h"
#include "analysis/swap_model.h"
#include "analysis/trace_view.h"
#include "core/types.h"
#include "sim/topology.h"
#include "swap/executor.h"
#include "swap/planner.h"

namespace pinpoint {
namespace relief {

/** Which mechanisms the planner may assign. */
enum class Strategy : std::uint8_t {
    kSwapOnly,       ///< PCIe swapping only (PR 2 pipeline)
    kRecomputeOnly,  ///< activation recomputation only
    kPeerOnly,       ///< peer-device offload only (multi-device)
    kHybrid,         ///< best mechanism per tensor
};

/** Number of Strategy enumerators. */
inline constexpr int kNumStrategies = 4;

/** @return short name ("swap", "recompute", "peer", "hybrid"). */
const char *strategy_name(Strategy s);

/**
 * @return the strategy named @p name.
 * @throws UsageError (strategy names are user input) for unknown
 * names.
 */
Strategy strategy_from_name(const std::string &name);

/** Relief mechanism assigned to one decision. */
enum class Mechanism : std::uint8_t {
    kSwap,
    kRecompute,
    kPeer,
};

/** @return short name ("swap", "recompute", "peer"). */
const char *mechanism_name(Mechanism m);

/** "No cap" sentinel for the overhead budget. */
inline constexpr TimeNs kUnlimitedBudget =
    std::numeric_limits<TimeNs>::max();

/** Unified planner configuration. */
struct StrategyOptions {
    /** Shared-link bandwidths for the swap legs. */
    analysis::LinkBandwidth link;
    /**
     * Eq. 1 headroom required for a swap or peer offload to count
     * as hideable (swap::GapEvaluation::hideable). One whose round
     * trip fits its gap but misses this headroom has no stall and
     * is not offered at all. swap::SwapPlanner skips it too, unless
     * allow_overhead is set: it then schedules it with zero
     * overhead.
     */
    double safety_factor = 1.0;
    /** Ignore blocks smaller than this. */
    std::size_t min_block_bytes = 1024 * 1024;
    /**
     * Total predicted overhead the selection may spend across all
     * overhead-bearing decisions (hideable swaps are free and never
     * consume budget). kUnlimitedBudget = take everything.
     */
    TimeNs overhead_budget = kUnlimitedBudget;
    /**
     * Per-request latency SLO for serving sessions (0 = no SLO).
     * Training plans spread overhead across an iteration; a request
     * stream cannot — one stalled transfer lands inside one request
     * window. With an SLO set, no single overhead-bearing decision
     * whose predicted stall exceeds it is ever selected, whatever
     * the total budget still allows.
     */
    TimeNs latency_budget_ns = 0;
    /**
     * Device count of the topology the trace ran on. Peer offload
     * needs a peer to offload to: it is available only when this is
     * >= 2 and the interconnect carries bandwidth.
     */
    int devices = 1;
    /**
     * Peer interconnect the offload legs are priced on (bandwidth
     * both directions plus per-transfer latency). The default spec
     * carries no bandwidth, so peer offload stays unavailable until
     * a topology fills it.
     */
    sim::InterconnectSpec interconnect;

    /** @return true when the peer-offload mechanism can be priced. */
    bool peer_available() const
    {
        return devices >= 2 && interconnect.peer_bw_bps > 0.0;
    }
};

/**
 * One per-tensor relief assignment: the swap::SwapDecision leg record
 * (block, slot, size, gap, hide ratio, overhead) plus its mechanism.
 * Swap and peer legs go to swap::schedule_plan as that record; for a
 * recompute, `overhead` is the recompute cost (the producer's
 * measured forward time) and `hide_ratio` is 0. A plain record:
 * nothing in it owns memory.
 */
struct ReliefDecision : swap::SwapDecision {
    Mechanism mechanism = Mechanism::kSwap;
    /**
     * True when the decision's absence window contains the original
     * peak instant, i.e. it contributes to peak reduction.
     */
    bool covers_peak = false;
    /**
     * Recompute only: the forward op re-run, as an op id of the view
     * the report was planned on (TraceView::op_name names it); 0,
     * the empty name, for swap and peer decisions.
     */
    decltype(analysis::Producer::op) producer = 0;
};

/** Unified planner output: the plan plus its scheduled execution. */
struct ReliefReport {
    /** Strategy that produced this report. */
    Strategy strategy = Strategy::kHybrid;
    /**
     * False when the strategy's mechanism cannot be priced at all —
     * peer offload on a single-device topology. An unavailable
     * report has no decisions and keeps the original peak;
     * strategy comparisons and "winner" aggregations must skip it.
     */
    bool available = true;
    /**
     * Selected decisions, in (gap_start, block) order; totals_of()
     * sums them, per mechanism or over all.
     */
    std::vector<ReliefDecision> decisions;

    // --- scheduled execution (swap legs on the shared link) -------
    /**
     * Peak with the plan applied: one what-if peak over the
     * link-scheduled swap and peer legs and the recompute windows.
     */
    std::size_t new_peak_bytes = 0;
    /** swap::peak_saving(original peak, new_peak_bytes). */
    std::size_t measured_peak_reduction = 0;
    /**
     * Link-scheduled swap and peer stalls plus the recompute costs:
     * what the plan really adds to the iteration once
     * same-direction transfers serialize on their shared links.
     */
    TimeNs measured_overhead = 0;
    /** Host-link schedule of the swap-assigned decisions. */
    swap::LinkSchedule swap_schedule;
    /** Peer-link schedule of the peer-assigned decisions. */
    swap::LinkSchedule peer_schedule;
};

/** Sums over some of a plan's decisions. */
struct MechanismTotals {
    std::size_t decisions = 0;
    std::size_t bytes = 0;
    /** Bytes off the device at the original peak instant. */
    std::size_t covered_bytes = 0;
    /** Predicted overhead (within the budget, over all decisions). */
    TimeNs overhead = 0;
};

/** @return the sums over @p report's @p m decisions, or all of them. */
MechanismTotals totals_of(const ReliefReport &report,
                          std::optional<Mechanism> m = std::nullopt);

/**
 * Plans relief strategies for recorded traces. Stateless and
 * deterministic: a report depends only on the trace and options,
 * never on scheduling or wall-clock.
 */
class StrategyPlanner
{
  public:
    /** @throws Error for non-positive bandwidths or bad factor. */
    explicit StrategyPlanner(StrategyOptions options);

    /**
     * Plans every strategy from one trace analysis: the candidate
     * enumeration is shared, and the hybrid guard reuses the pure
     * selections. Each report's swap and peer legs are then
     * scheduled on fresh shared links, and one what-if peak over
     * all its legs fills its measured fields. Reads the
     * view's shared Timeline and producer index — planning never
     * rebuilds what the swap path already built. Reports are indexed
     * by Strategy enumerator order; the peer-only report is marked
     * unavailable on single-device topologies.
     */
    std::array<ReliefReport, kNumStrategies>
    plan_all(const analysis::TraceView &view) const;

  private:
    StrategyOptions options_;
};

}  // namespace relief
}  // namespace pinpoint

