// Fixture: must analyze clean. The identity/bookkeeping fields
// (scenario, status, error) may be printed by anyone — the CLI's
// tables do — and reading a metric field without emitting it is
// ordinary computation, not serialization.
#include <ostream>

#include "sweep/driver.h"

namespace pinpoint {
namespace cli {

void
good_row(std::ostream &os, const sweep::ScenarioResult &r)
{
    os << r.scenario.id() << " " << r.error;
    const auto peak = r.peak_total_bytes;
    if (peak > 0)
        os << "over";
}

}  // namespace cli
}  // namespace pinpoint
