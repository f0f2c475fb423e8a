// Fixture: MUST trigger [block-id-hash]. Per-block state in a node
// map pays a heap allocation per block; the freeze's slot column
// already names each block with a dense index.
#include <cstddef>
#include <cstdint>
#include <map>
#include <unordered_map>

namespace pinpoint {

using BlockId = std::uint64_t;
using TimeNs = std::uint64_t;

namespace analysis {

std::size_t
rogue_walk(const BlockId *blocks, const TimeNs *times, std::size_t n)
{
    std::unordered_map<BlockId, TimeNs> last;  // violation
    std::map<pinpoint::BlockId, std::size_t> order;  // violation
    for (std::size_t i = 0; i < n; ++i) {
        last[blocks[i]] = times[i];
        order.emplace(blocks[i], i);
    }
    return last.size() + order.size();
}

}  // namespace analysis
}  // namespace pinpoint
