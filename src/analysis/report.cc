#include "analysis/report.h"

#include <ostream>
#include <sstream>

#include "analysis/ati.h"
#include "analysis/breakdown.h"
#include "analysis/gantt.h"
#include "analysis/iteration.h"
#include "analysis/lifetime.h"
#include "analysis/outliers.h"
#include "analysis/swap_model.h"
#include "analysis/timeline.h"
#include "analysis/trace_view.h"
#include "core/check.h"
#include "core/format.h"
#include "core/types.h"
#include "trace/event.h"

namespace pinpoint {
namespace analysis {
namespace {

void
heading(std::ostream &os, const std::string &text)
{
    os << "\n== " << text << " ==\n";
}

}  // namespace

void
write_report(const TraceView &view, std::ostream &os,
             const ReportOptions &options)
{
    PP_CHECK(!view.empty(), "cannot report on an empty trace");

    // The shared sub-index: every section below reads this one
    // instance, never a private rebuild.
    const Timeline &timeline = view.timeline();
    os << "pinpoint characterization — " << options.title << "\n";
    os << view.size() << " memory behaviors over "
       << format_time(timeline.end() - timeline.start()) << " ("
       << view.count(trace::EventKind::kMalloc) << " malloc, "
       << view.count(trace::EventKind::kFree) << " free, "
       << view.count(trace::EventKind::kRead) << " read, "
       << view.count(trace::EventKind::kWrite) << " write)\n";

    heading(os, "iterative pattern (Fig. 2)");
    const auto &pattern = view.iteration_pattern();
    if (pattern.period_allocs > 0) {
        os << "periodic: every " << pattern.period_allocs
           << " allocations (confidence "
           << format_percent(pattern.period_confidence) << ")\n";
    } else {
        os << "no allocation period detected\n";
    }
    os << "iteration signatures identical: "
       << format_percent(pattern.signature_stability) << " of "
       << pattern.iterations << " iterations\n";

    heading(os, "access time intervals (Fig. 3)");
    const AtiStats s = ati_stats(timeline);
    if (s.count == 0) {
        os << "no ATI samples (trace too short)\n";
    } else {
        os << s.count << " samples: median "
           << format_time(static_cast<TimeNs>(s.median * kNsPerUs))
           << ", p90 "
           << format_time(static_cast<TimeNs>(s.p90 * kNsPerUs))
           << ", max "
           << format_time(static_cast<TimeNs>(s.max * kNsPerUs))
           << "\n";
        const double hideable =
            max_swap_bytes(static_cast<TimeNs>(s.median * kNsPerUs),
                           options.link);
        os << "a median gap hides only "
           << format_bytes(static_cast<std::size_t>(hideable))
           << " of swap traffic (Eq. 1)\n";
    }

    heading(os, "occupation breakdown (Figs. 5-7)");
    const auto b = occupation_breakdown(view);
    os << "peak " << format_bytes(b.peak_total()) << " at "
       << format_time(b.peak_time) << "\n";
    for (int c = 0; c < kNumCategories; ++c) {
        const auto cat = static_cast<Category>(c);
        os << "  " << pad(category_name(cat), 13)
           << pad(format_bytes(b.at_peak[c]), 12)
           << format_percent(b.fraction(cat)) << "\n";
    }

    heading(os, "block lifetimes");
    const auto life = lifetime_report(timeline);
    for (int c = 0; c < kNumCategories; ++c) {
        const auto cat = static_cast<Category>(c);
        const auto &l = life.of(cat);
        os << "  " << pad(category_name(cat), 13) << l.blocks
           << " freed, " << l.unfreed << " persistent";
        if (l.blocks > 0) {
            os << ", median life "
               << format_time(static_cast<TimeNs>(
                      l.median_lifetime_us * kNsPerUs));
        }
        os << "\n";
    }

    heading(os, "outliers & swap advice (Fig. 4, Eq. 1)");
    const auto outliers = sift_outliers(view, OutlierCriteria{});
    if (outliers.empty()) {
        os << "no huge-ATI/huge-size outliers at the paper's "
              "thresholds (>0.8 s, >600 MB)\n";
    } else {
        const auto ranked = rank_swap_candidates(outliers, options.link);
        os << ranked.size() << " outlier behaviors; largest: block "
           << ranked.front().sample.block << " ("
           << format_bytes(ranked.front().sample.size) << ", ATI "
           << format_time(ranked.front().sample.interval) << ") — "
           << (ranked.front().swappable ? "swappable for free"
                                        : "not hideable")
           << "\n";
    }

    if (options.gantt) {
        heading(os, "gantt (Fig. 2)");
        os << render_gantt(timeline, 24);
    }
}

std::string
report_string(const TraceView &view, const ReportOptions &options)
{
    std::ostringstream os;
    write_report(view, os, options);
    return os.str();
}

}  // namespace analysis
}  // namespace pinpoint
