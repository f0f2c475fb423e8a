#include "analysis/series.h"

#include <ostream>
#include <vector>

#include "analysis/trace_view.h"
#include "core/check.h"
#include "core/types.h"
#include "trace/event.h"

namespace pinpoint {
namespace analysis {

std::size_t
OccupancyPoint::total() const
{
    std::size_t n = 0;
    for (std::size_t b : bytes)
        n += b;
    return n;
}

std::vector<OccupancyPoint>
occupancy_series(const TraceView &view, std::size_t max_points)
{
    std::vector<OccupancyPoint> series;
    OccupancyPoint cur;
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
            PP_CHECK(!b.live, "malloc of already-live block "
                                  << view.block(i));
            b = {view.category(i), view.event_size(i), true};
            cur.bytes[static_cast<int>(b.category)] += b.size;
        } else if (view.kind(i) == trace::EventKind::kFree) {
            Live &b = blocks[view.slot(i)];
            PP_CHECK(b.live, "free of unknown block " << view.block(i));
            cur.bytes[static_cast<int>(b.category)] -= b.size;
            b.live = false;
        } else {
            continue;
        }
        cur.time = view.time(i);
        if (!series.empty() && series.back().time == cur.time)
            series.back() = cur;  // coalesce same-instant edges
        else
            series.push_back(cur);
    }

    if (max_points > 0 && series.size() > max_points) {
        // Thin uniformly but always keep the peak sample.
        std::size_t peak_idx = 0;
        for (std::size_t i = 1; i < series.size(); ++i)
            if (series[i].total() > series[peak_idx].total())
                peak_idx = i;
        std::vector<OccupancyPoint> thin;
        const std::size_t step = series.size() / max_points + 1;
        for (std::size_t i = 0; i < series.size(); i += step) {
            thin.push_back(series[i]);
            if (i < peak_idx && peak_idx < i + step)
                thin.push_back(series[peak_idx]);
        }
        if (thin.empty() || thin.back().time != series.back().time)
            thin.push_back(series.back());
        series = std::move(thin);
    }
    return series;
}

void
write_series_csv(const std::vector<OccupancyPoint> &series,
                 std::ostream &os)
{
    os << "time_ns,input,parameter,intermediate,total\n";
    for (const auto &p : series) {
        os << p.time << ',' << p.bytes[0] << ',' << p.bytes[1] << ','
           << p.bytes[2] << ',' << p.total() << "\n";
    }
    PP_CHECK(os.good(), "series write failed");
}

}  // namespace analysis
}  // namespace pinpoint
