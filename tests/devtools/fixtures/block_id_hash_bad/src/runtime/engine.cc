// Fixture: MUST trigger [block-id-hash]. The engine binds tensors to
// blocks by TensorId, which indexes a vector directly.
#include <cstdint>
#include <unordered_set>

namespace pinpoint {

using TensorId = std::uint64_t;

namespace runtime {

bool
rogue_bound(TensorId id)
{
    static std::unordered_set<TensorId> bound;  // violation
    return !bound.insert(id).second;
}

}  // namespace runtime
}  // namespace pinpoint
