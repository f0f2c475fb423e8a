// Fixture: MUST trigger [positional-strategy-index]. "Slot 2 is
// hybrid" was true until PR 6 inserted kPeerOnly there; positional
// reads silently retarget when the enum grows.
#include "relief/strategy_planner.h"

namespace pinpoint {

std::size_t
rogue_hybrid_savings(const relief::StrategyPlanner &planner,
                     const analysis::TraceView &view)
{
    const auto reports = planner.plan_all(view);
    return reports[2].peak_reduction_bytes;  // violation
}

std::size_t
rogue_ref_binding(const api::Study &study)
{
    // Reference bindings (no space after &) must be tracked too.
    const auto &reports = study.relief_all();
    return reports[3].overhead_ns;  // violation
}

}  // namespace pinpoint
