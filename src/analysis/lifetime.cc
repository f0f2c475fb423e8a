#include "analysis/lifetime.h"

#include <array>
#include <cstddef>
#include <vector>

#include "analysis/stats.h"
#include "analysis/timeline.h"
#include "core/format.h"
#include "core/types.h"

namespace pinpoint {
namespace analysis {

LifetimeReport
lifetime_report(const Timeline &timeline)
{
    LifetimeReport report;
    std::array<std::vector<double>, kNumCategories> lifetimes;

    for (const auto &b : timeline.blocks()) {
        const auto c = static_cast<std::size_t>(b.category);
        if (!b.freed) {
            ++report.by_category[c].unfreed;
            continue;
        }
        lifetimes[c].push_back(to_us(b.free_time - b.alloc_time));
    }

    for (std::size_t c = 0; c < lifetimes.size(); ++c) {
        auto &cat = report.by_category[c];
        cat.blocks = lifetimes[c].size();
        if (cat.blocks > 0)
            cat.median_lifetime_us =
                select_quantiles(lifetimes[c], {0.5})[0];
    }
    return report;
}

}  // namespace analysis
}  // namespace pinpoint
