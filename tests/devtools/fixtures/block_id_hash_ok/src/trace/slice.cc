// Fixture: must analyze clean. The trace layer is outside the
// rule's scope: slicing a recorder keys its few live blocks by id.
#include <cstddef>
#include <cstdint>
#include <unordered_set>

namespace pinpoint {

using BlockId = std::uint64_t;

namespace trace {

std::size_t
tracked(const BlockId *blocks, std::size_t n)
{
    std::unordered_set<BlockId> seen(blocks, blocks + n);
    return seen.size();
}

}  // namespace trace
}  // namespace pinpoint
