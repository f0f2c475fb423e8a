// Fixture: MUST trigger [raw-number-parse]. std::stoi accepts
// "12abc" as 12, so a typo'd flag value silently becomes a valid
// workload instead of a UsageError.
#include <string>

namespace pinpoint {

int
rogue_parse(const std::string &text)
{
    return std::stoi(text);  // violation
}

}  // namespace pinpoint
