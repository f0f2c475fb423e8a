#include "analysis/outliers.h"

#include <algorithm>

#include "analysis/ati.h"
#include "analysis/swap_model.h"
#include "analysis/trace_view.h"
#include "core/types.h"
#include "trace/event.h"

namespace pinpoint {
namespace analysis {

std::vector<AtiSample>
sift_outliers(const std::vector<AtiSample> &atis,
              const OutlierCriteria &criteria)
{
    std::vector<AtiSample> out;
    for (const auto &s : atis) {
        if (s.interval >= criteria.min_interval &&
            s.size >= criteria.min_size)
            out.push_back(s);
    }
    return out;
}

std::vector<AtiSample>
sift_outliers(const TraceView &view, const OutlierCriteria &criteria)
{
    // compute_atis' chains, one per slot, but a sample is built only
    // when it passes both thresholds. Every slot keeps its chain: an
    // access's size is its own event's, so a small access may still
    // open the gap a large one closes.
    struct Chain {
        TimeNs last = 0;
        bool started = false;
    };
    std::vector<Chain> chains(view.slot_count());
    std::vector<AtiSample> out;
    const std::size_t n = view.size();
    for (std::size_t i = 0; i < n; ++i) {
        const trace::EventKind kind = view.kind(i);
        if (kind != trace::EventKind::kRead &&
            kind != trace::EventKind::kWrite)
            continue;
        Chain &chain = chains[view.slot(i)];
        const TimeNs t = view.time(i);
        if (chain.started && t - chain.last >= criteria.min_interval &&
            view.event_size(i) >= criteria.min_size) {
            AtiSample &s = out.emplace_back();
            s.behavior_index = i;
            s.block = view.block(i);
            s.size = view.event_size(i);
            s.interval = t - chain.last;
            s.at_time = t;
            s.category = view.category(i);
            s.op = view.op_id(i);
        }
        chain.last = t;
        chain.started = true;
    }
    return out;
}

std::vector<SwapCandidate>
rank_swap_candidates(const std::vector<AtiSample> &outliers,
                     const LinkBandwidth &link)
{
    std::vector<SwapCandidate> out;
    out.reserve(outliers.size());
    for (const auto &s : outliers) {
        SwapCandidate c;
        c.sample = s;
        c.max_hideable_bytes = max_swap_bytes(s.interval, link);
        c.swappable =
            static_cast<double>(s.size) <= c.max_hideable_bytes;
        out.push_back(c);
    }
    std::sort(out.begin(), out.end(),
              [](const SwapCandidate &a, const SwapCandidate &b) {
                  return a.sample.size > b.sample.size;
              });
    return out;
}

}  // namespace analysis
}  // namespace pinpoint
