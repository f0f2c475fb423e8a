// Fixture: must analyze clean. view.count() reads the cached per-kind
// totals, and .count() on ordinary containers (unordered_set
// membership tests) is not the deprecated recorder API.
#include <unordered_set>

#include "analysis/trace_view.h"

namespace pinpoint {
namespace analysis {

std::size_t
good_malloc_count(const TraceView &view,
                  const std::unordered_set<BlockId> &tracked,
                  BlockId block)
{
    std::size_t n = view.count(trace::EventKind::kMalloc);
    if (tracked.count(block))
        ++n;
    return n;
}

}  // namespace analysis
}  // namespace pinpoint
