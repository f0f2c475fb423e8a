#include "analysis/breakdown.h"

#include <algorithm>
#include <vector>

#include "analysis/trace_view.h"
#include "core/check.h"
#include "core/types.h"
#include "trace/event.h"

namespace pinpoint {
namespace analysis {

double
BreakdownResult::fraction(Category c) const
{
    if (peak_total() == 0)
        return 0.0;
    return static_cast<double>(at_peak[static_cast<int>(c)]) /
           static_cast<double>(peak_total());
}

BreakdownResult
occupation_breakdown(const TraceView &view)
{
    BreakdownResult r;
    std::array<std::size_t, kNumCategories> current{};
    std::size_t total = 0;
    std::size_t peak = 0;
    // Category and size of each slot's block, captured at malloc.
    struct Live {
        Category category = Category::kIntermediate;
        std::size_t size = 0;
        bool live = false;
    };
    std::vector<Live> blocks(view.slot_count());

    const std::size_t n = view.size();
    for (std::size_t i = 0; i < n; ++i) {
        if (view.kind(i) == trace::EventKind::kMalloc) {
            Live &b = blocks[view.slot(i)];
            PP_CHECK(!b.live,
                     "malloc of already-live block " << view.block(i));
            b = {view.category(i), view.event_size(i), true};
            current[static_cast<int>(b.category)] += b.size;
            total += b.size;
            auto &peak_cat =
                r.peak_per_category[static_cast<int>(b.category)];
            peak_cat = std::max(peak_cat,
                                current[static_cast<int>(b.category)]);
            if (total > peak) {
                peak = total;
                r.peak_time = view.time(i);
                r.at_peak = current;
            }
        } else if (view.kind(i) == trace::EventKind::kFree) {
            Live &b = blocks[view.slot(i)];
            PP_CHECK(b.live, "free of unknown block " << view.block(i));
            current[static_cast<int>(b.category)] -= b.size;
            total -= b.size;
            b.live = false;
        }
    }
    return r;
}

}  // namespace analysis
}  // namespace pinpoint
