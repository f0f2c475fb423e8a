#include "analysis/lifetime.h"

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
    std::array<std::vector<double>, kNumCategories> accesses;

    for (const auto &b : timeline.blocks()) {
        const int c = static_cast<int>(b.category);
        accesses[static_cast<std::size_t>(c)].push_back(
            static_cast<double>(b.access_count));
        if (!b.freed) {
            ++report.by_category[static_cast<std::size_t>(c)].unfreed;
            continue;
        }
        const double life = to_us(b.free_time - b.alloc_time);
        lifetimes[static_cast<std::size_t>(c)].push_back(life);
    }

    for (int c = 0; c < kNumCategories; ++c) {
        auto &cat = report.by_category[static_cast<std::size_t>(c)];
        cat.blocks = lifetimes[static_cast<std::size_t>(c)].size();
        cat.lifetime_us =
            summarize(std::move(lifetimes[static_cast<std::size_t>(c)]));
        cat.accesses =
            summarize(std::move(accesses[static_cast<std::size_t>(c)]));
    }
    return report;
}

}  // namespace analysis
}  // namespace pinpoint
