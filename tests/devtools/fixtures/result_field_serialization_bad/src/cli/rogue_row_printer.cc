// Fixture: MUST trigger [result-field-serialization].
// Streaming a ScenarioResult metric field outside the export codec
// creates a second byte format the cache salt cannot see.
#include <ostream>

#include "sweep/driver.h"

namespace pinpoint {
namespace cli {

void
rogue_row(std::ostream &os, const sweep::ScenarioResult &r)
{
    os << r.peak_total_bytes;  // violation: bypasses the codec
}

}  // namespace cli
}  // namespace pinpoint
