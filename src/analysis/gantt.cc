#include "analysis/gantt.h"

#include <algorithm>
#include <sstream>

#include "analysis/timeline.h"
#include "core/check.h"
#include "core/format.h"
#include "core/types.h"

namespace pinpoint {
namespace analysis {

std::vector<const BlockLifetime *>
gantt_rows(const Timeline &timeline, TimeNs from, TimeNs to)
{
    if (to == 0)
        to = timeline.end();
    std::vector<const BlockLifetime *> rows;
    for (const auto &b : timeline.blocks()) {
        const TimeNs free_t = b.freed ? b.free_time : timeline.end();
        if (b.alloc_time <= to && free_t >= from)
            rows.push_back(&b);
    }
    return rows;
}

std::string
render_gantt(const Timeline &timeline, const GanttOptions &options)
{
    PP_CHECK(options.width >= 16, "gantt width too small");
    const TimeNs from = options.from;
    const TimeNs to = options.to != 0 ? options.to : timeline.end();
    PP_CHECK(to > from, "empty gantt window");

    auto rows = gantt_rows(timeline, from, to);
    // Keep the largest blocks when over budget, then restore order.
    if (rows.size() > options.max_rows) {
        std::sort(rows.begin(), rows.end(),
                  [](const BlockLifetime *a, const BlockLifetime *b) {
                      return a->size > b->size;
                  });
        rows.resize(options.max_rows);
    }
    std::sort(rows.begin(), rows.end(),
              [&](const BlockLifetime *a, const BlockLifetime *b) {
                  if (options.sort_by_ptr)
                      return a->ptr < b->ptr;
                  return a->alloc_time < b->alloc_time;
              });

    const double span = static_cast<double>(to - from);
    const auto col = [&](TimeNs t) {
        double frac = (static_cast<double>(t) -
                       static_cast<double>(from)) /
                      span;
        frac = std::clamp(frac, 0.0, 1.0);
        return static_cast<int>(frac *
                                static_cast<double>(options.width - 1));
    };

    std::ostringstream os;
    os << "time window: " << format_time(from) << " .. "
       << format_time(to) << "  (" << rows.size() << " blocks)\n";
    for (const auto *b : rows) {
        std::string line(static_cast<std::size_t>(options.width), '.');
        const TimeNs free_t = b->freed ? b->free_time : to;
        const int c0 = col(std::max(b->alloc_time, from));
        const int c1 = col(std::min(free_t, to));
        for (int c = c0; c <= c1; ++c)
            line[static_cast<std::size_t>(c)] = '#';
        // Mark accesses inside the lifetime with '|'.
        for (TimeNs a : timeline.accesses(*b)) {
            if (a < from || a > to)
                continue;
            line[static_cast<std::size_t>(col(a))] = '|';
        }
        os << line << "  " << pad(format_bytes(b->size), 10)
           << category_name(b->category) << "\n";
    }
    return os.str();
}

}  // namespace analysis
}  // namespace pinpoint
