// Fixture: must analyze clean. Per-block state sits in a vector
// indexed by slot; maps keyed by anything but a block or tensor id
// (names, op instances, addresses) are not the rule's business.
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pinpoint {

using BlockId = std::uint64_t;
using TimeNs = std::uint64_t;

template <typename Key, typename Value>
class FlatTable
{
  public:
    Value value{};
};

namespace analysis {

std::size_t
good_walk(const std::size_t *slots, const TimeNs *times, std::size_t n,
          std::size_t slot_count)
{
    std::vector<TimeNs> last(slot_count);
    std::map<std::string, std::size_t> by_name;
    FlatTable<std::uint64_t, TimeNs> span;
    for (std::size_t i = 0; i < n; ++i)
        last[slots[i]] = times[i] + span.value;
    by_name["blocks"] = last.size();
    return by_name.size();
}

}  // namespace analysis
}  // namespace pinpoint
