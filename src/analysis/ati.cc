#include "analysis/ati.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "analysis/stats.h"
#include "analysis/timeline.h"
#include "analysis/trace_view.h"
#include "core/format.h"
#include "core/types.h"
#include "trace/event.h"

namespace pinpoint {
namespace analysis {

namespace {

/** An interval, in ns, that the sample holds `weight` times. */
struct WeightedNs {
    TimeNs ns = 0;
    std::size_t weight = 0;
};

/**
 * Order statistics of a sample held as plain values, each once, and
 * weighted values, each `weight` times. Each is a three-way
 * quickselect (expected linear time) over the plain values the
 * previous answer left above it, or, for a rank below the previous
 * one's, over them all; the weighted values are sorted once and
 * counted by binary search.
 */
class WeightedSelect
{
  public:
    WeightedSelect(std::vector<TimeNs> &plain,
                   std::vector<WeightedNs> weighted)
        : plain_(plain), weighted_(std::move(weighted))
    {
        std::sort(weighted_.begin(), weighted_.end(),
                  [](const WeightedNs &a, const WeightedNs &b) {
                      return a.ns < b.ns;
                  });
        below_.reserve(weighted_.size() + 1);
        below_.push_back(0);
        for (const WeightedNs &w : weighted_)
            below_.push_back(below_.back() + w.weight);
    }

    /** @return the @p k-th smallest (0-based) value. */
    TimeNs
    nth(std::size_t k)
    {
        // Ranks [asked_rank_, rank_) hold the last answer. Below
        // them, start over: the plain values were only reordered.
        if (asked_ && k < asked_rank_)
            asked_ = false;
        if (asked_ && k < rank_)
            return last_;
        if (!asked_) {
            first_ = 0;
            rank_ = 0;
        }
        asked_rank_ = k;
        // The plain values in [lo, hi) are those above `low` (when
        // bounded) and below `high`; `base` values of the sample are
        // at or under `low`.
        std::size_t lo = first_;
        std::size_t hi = plain_.size();
        std::size_t base = rank_;
        std::size_t from = asked_ ? weighted_up_to(last_) : 0;
        for (;;) {
            if (lo == hi) {
                // The rest of the window is weighted values only.
                const std::size_t need = k - base + below_[from];
                const auto at = std::upper_bound(below_.begin() +
                                                     static_cast<std::ptrdiff_t>(from),
                                                 below_.end(), need);
                return answer(lo, weighted_[static_cast<std::size_t>(
                                                at - below_.begin()) -
                                            1]
                                      .ns);
            }
            const TimeNs pivot = plain_[lo + (hi - lo) / 2];
            const auto first = plain_.begin() + static_cast<std::ptrdiff_t>(lo);
            const auto last = plain_.begin() + static_cast<std::ptrdiff_t>(hi);
            const auto equal = std::partition(
                first, last, [&](TimeNs v) { return v < pivot; });
            const auto above = std::partition(
                equal, last, [&](TimeNs v) { return v == pivot; });
            const std::size_t under = weighted_under(pivot);
            const std::size_t upto = weighted_up_to(pivot);
            const std::size_t below =
                static_cast<std::size_t>(equal - first) + below_[under] -
                below_[from];
            const std::size_t at =
                static_cast<std::size_t>(above - equal) + below_[upto] -
                below_[under];
            if (k - base < below) {
                hi = static_cast<std::size_t>(equal - plain_.begin());
            } else if (k - base < below + at) {
                return answer(
                    static_cast<std::size_t>(above - plain_.begin()), pivot);
            } else {
                base += below + at;
                lo = static_cast<std::size_t>(above - plain_.begin());
                from = upto;
            }
        }
    }

  private:
    /** @return the count of weighted values below @p ns. */
    std::size_t
    weighted_under(TimeNs ns) const
    {
        return static_cast<std::size_t>(
            std::lower_bound(weighted_.begin(), weighted_.end(), ns,
                             [](const WeightedNs &w, TimeNs v) {
                                 return w.ns < v;
                             }) -
            weighted_.begin());
    }

    /** @return the count of weighted values at or below @p ns. */
    std::size_t
    weighted_up_to(TimeNs ns) const
    {
        return static_cast<std::size_t>(
            std::upper_bound(weighted_.begin(), weighted_.end(), ns,
                             [](TimeNs v, const WeightedNs &w) {
                                 return v < w.ns;
                             }) -
            weighted_.begin());
    }

    /**
     * Records @p value as the last answer: plain_[0, @p plain_at_most)
     * are the plain values at or below it.
     */
    TimeNs
    answer(std::size_t plain_at_most, TimeNs value)
    {
        asked_ = true;
        first_ = plain_at_most;
        rank_ = plain_at_most + below_[weighted_up_to(value)];
        last_ = value;
        return value;
    }

    std::vector<TimeNs> &plain_;
    std::vector<WeightedNs> weighted_;
    /** below_[i]: the weight of weighted_[0, i). */
    std::vector<std::size_t> below_;
    /**
     * After an answer: last_ is the value of rank asked_rank_,
     * plain_[0, first_) are the plain values at or below it, and
     * rank_ values of the sample are.
     */
    bool asked_ = false;
    std::size_t asked_rank_ = 0;
    std::size_t first_ = 0;
    std::size_t rank_ = 0;
    TimeNs last_ = 0;
};

}  // namespace

AtiStats
ati_stats(const Timeline &timeline)
{
    // A tile's blocks repeat its source's intervals, so those enter
    // the selection once, with the count of their copies as a weight;
    // every other interval enters on its own (a trace without tiles
    // has only those). The selection runs on ns, and ns to us is
    // monotone, so the order statistics, and the quantiles
    // interpolated from them, are those of the flat sample.
    //
    // Runs of blocks by weight: 0 for a copy, 1 + its copies for a
    // source; the blocks between weigh 1.
    struct Run {
        std::uint32_t first = 0;
        std::uint32_t count = 0;
        std::size_t weight = 0;
    };
    std::vector<BlockTile> tiles = timeline.block_tiles();
    std::sort(tiles.begin(), tiles.end(),
              [](const BlockTile &a, const BlockTile &b) {
                  return a.source < b.source;
              });
    std::vector<Run> runs;
    for (std::size_t i = 0; i < tiles.size();) {
        std::size_t j = i;
        for (; j < tiles.size() && tiles[j].source == tiles[i].source; ++j)
            runs.push_back({tiles[j].first, tiles[j].count, 0});
        runs.push_back({tiles[i].source, tiles[i].count, 1 + (j - i)});
        i = j;
    }
    std::sort(runs.begin(), runs.end(), [](const Run &a, const Run &b) {
        return a.first < b.first;
    });

    const std::vector<BlockLifetime> &blocks = timeline.blocks();
    std::vector<TimeNs> plain;
    std::vector<WeightedNs> weighted;
    std::size_t count = 0;
    TimeNs max = 0;
    const auto add = [&](std::size_t from, std::size_t to,
                         std::size_t weight) {
        for (std::size_t slot = from; slot < to; ++slot) {
            const AccessList accesses = timeline.accesses(blocks[slot]);
            for (std::size_t k = 1; k < accesses.size(); ++k) {
                const TimeNs ns = accesses[k] - accesses[k - 1];
                if (weight == 1)
                    plain.push_back(ns);
                else
                    weighted.push_back({ns, weight});
                max = std::max(max, ns);
            }
            if (accesses.size() > 1)
                count += weight * (accesses.size() - 1);
        }
    };
    std::size_t slot = 0;
    for (const Run &r : runs) {
        add(slot, r.first, 1);
        if (r.weight != 0)
            add(r.first, r.first + r.count, r.weight);
        slot = r.first + r.count;
    }
    add(slot, blocks.size(), 1);

    AtiStats out;
    if (count == 0)
        return out;
    WeightedSelect select(plain, std::move(weighted));
    const auto quantile = [&](double p) {
        const QuantilePos q(count, p);
        const double a = to_us(select.nth(q.lo));
        return q.at(a, q.hi == q.lo ? a : to_us(select.nth(q.hi)));
    };
    out.count = count;
    out.median = quantile(0.5);
    out.p90 = quantile(0.9);
    out.max = to_us(max);
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
