// Fixture: must analyze clean. Of the runtime layer only the
// engine's files are in scope; plan lowering runs once per plan.
#include <cstddef>
#include <cstdint>
#include <unordered_map>

namespace pinpoint {

using TensorId = std::uint64_t;

namespace runtime {

std::size_t
last_uses(const TensorId *ids, std::size_t n)
{
    std::unordered_map<TensorId, std::size_t> last_use;
    for (std::size_t i = 0; i < n; ++i)
        last_use[ids[i]] = i;
    return last_use.size();
}

}  // namespace runtime
}  // namespace pinpoint
