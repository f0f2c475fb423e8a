// Fixture: must analyze clean. Per-Strategy arrays are read via the
// Strategy enumerator (or a loop variable, which survives enum
// growth because kNumStrategies grows with it).
#include "relief/strategy_planner.h"

namespace pinpoint {

std::size_t
good_hybrid_savings(const relief::StrategyPlanner &planner,
                    const analysis::TraceView &view)
{
    const auto reports = planner.plan_all(view);
    std::size_t best = 0;
    for (int i = 0; i < relief::kNumStrategies; ++i)
        best = std::max(
            best,
            reports[static_cast<std::size_t>(i)].peak_reduction_bytes);
    const auto &hybrid = reports[static_cast<std::size_t>(
        relief::Strategy::kHybrid)];
    return best + hybrid.peak_reduction_bytes;
}

}  // namespace pinpoint
