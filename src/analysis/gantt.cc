#include "analysis/gantt.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "analysis/timeline.h"
#include "core/check.h"
#include "core/format.h"
#include "core/types.h"

namespace pinpoint {
namespace analysis {

std::string
render_gantt(const Timeline &timeline, std::size_t max_rows)
{
    constexpr int kWidth = 96;
    const TimeNs to = timeline.end();
    PP_CHECK(to > 0, "empty gantt window");

    std::vector<const BlockLifetime *> rows;
    rows.reserve(timeline.blocks().size());
    for (const BlockLifetime &b : timeline.blocks())
        rows.push_back(&b);
    // Keep the largest blocks when over budget, then restore order.
    if (rows.size() > max_rows) {
        std::sort(rows.begin(), rows.end(),
                  [](const BlockLifetime *a, const BlockLifetime *b) {
                      return a->size > b->size;
                  });
        rows.resize(max_rows);
    }
    std::sort(rows.begin(), rows.end(),
              [](const BlockLifetime *a, const BlockLifetime *b) {
                  return a->ptr < b->ptr;
              });

    const double span = static_cast<double>(to);
    const auto col = [&](TimeNs t) {
        return static_cast<int>(static_cast<double>(t) / span *
                                static_cast<double>(kWidth - 1));
    };

    std::ostringstream os;
    os << "time window: " << format_time(0) << " .. " << format_time(to)
       << "  (" << rows.size() << " blocks)\n";
    for (const auto *b : rows) {
        std::string line(static_cast<std::size_t>(kWidth), '.');
        const TimeNs free_t = b->freed ? b->free_time : to;
        for (int c = col(b->alloc_time); c <= col(free_t); ++c)
            line[static_cast<std::size_t>(c)] = '#';
        // Mark accesses inside the lifetime with '|'.
        for (TimeNs a : timeline.accesses(*b))
            line[static_cast<std::size_t>(col(a))] = '|';
        os << line << "  " << pad(format_bytes(b->size), 10)
           << category_name(b->category) << "\n";
    }
    return os.str();
}

}  // namespace analysis
}  // namespace pinpoint
