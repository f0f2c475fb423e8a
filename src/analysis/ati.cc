#include "analysis/ati.h"

#include <algorithm>
#include <map>

#include "analysis/stats.h"
#include "analysis/timeline.h"
#include "analysis/trace_view.h"
#include "core/format.h"
#include "core/types.h"
#include "trace/event.h"

namespace pinpoint {
namespace analysis {

AtiStats
ati_stats(const Timeline &timeline)
{
    std::size_t count = 0;
    for (const BlockLifetime &b : timeline.blocks())
        count += b.access_count > 0 ? b.access_count - 1 : 0;
    AtiStats out;
    if (count == 0)
        return out;
    std::vector<double> intervals;
    intervals.reserve(count);
    for (const BlockLifetime &b : timeline.blocks()) {
        const AccessList accesses = timeline.accesses(b);
        for (std::size_t k = 1; k < accesses.size(); ++k)
            intervals.push_back(to_us(accesses[k] - accesses[k - 1]));
    }
    const std::vector<double> q = select_quantiles(intervals, {0.5, 0.9});
    out.count = count;
    out.median = q[0];
    out.p90 = q[1];
    out.max = *std::max_element(intervals.begin(), intervals.end());
    return out;
}

std::vector<AtiSample>
compute_atis(const TraceView &view, const AtiOptions &options)
{
    std::vector<AtiSample> out;
    // Last access time per slot. A chain ends at its block's free,
    // so a reused BlockId (impossible with our allocators, but legal
    // in traces from other tools) starts a fresh chain.
    struct Chain {
        TimeNs last = 0;
        bool started = false;
    };
    std::vector<Chain> chains(view.slot_count());

    const std::size_t n = view.size();
    for (std::size_t i = 0; i < n; ++i) {
        const trace::EventKind kind = view.kind(i);
        const bool is_access =
            kind == trace::EventKind::kRead ||
            kind == trace::EventKind::kWrite ||
            (options.include_alloc_free &&
             (kind == trace::EventKind::kMalloc ||
              kind == trace::EventKind::kFree));
        if (!is_access)
            continue;

        Chain &chain = chains[view.slot(i)];
        if (chain.started) {
            AtiSample s;
            s.behavior_index = i;
            s.block = view.block(i);
            s.size = view.event_size(i);
            s.interval = view.time(i) - chain.last;
            s.at_time = view.time(i);
            s.category = view.category(i);
            s.op = view.op_id(i);
            out.push_back(s);
        }
        chain.last = view.time(i);
        chain.started = true;
    }
    return out;
}

std::vector<AtiAttribution>
attribute_atis(const TraceView &view, const std::vector<AtiSample> &atis)
{
    std::map<std::string, std::vector<double>> groups;
    for (const auto &s : atis) {
        const std::string &op = view.op_name(s.op);
        groups[op.substr(0, op.find('.'))].push_back(to_us(s.interval));
    }
    std::vector<AtiAttribution> out;
    for (auto &[prefix, values] : groups) {
        AtiAttribution a;
        a.prefix = prefix;
        a.count = values.size();
        const auto stats = summarize(std::move(values));
        a.median_us = stats.median;
        a.p90_us = stats.p90;
        out.push_back(std::move(a));
    }
    std::sort(out.begin(), out.end(),
              [](const AtiAttribution &a, const AtiAttribution &b) {
                  if (a.count != b.count)
                      return a.count > b.count;
                  return a.prefix < b.prefix;
              });
    return out;
}

std::vector<double>
ati_microseconds(const std::vector<AtiSample> &atis)
{
    std::vector<double> out;
    out.reserve(atis.size());
    for (const auto &s : atis)
        out.push_back(to_us(s.interval));
    return out;
}

}  // namespace analysis
}  // namespace pinpoint
