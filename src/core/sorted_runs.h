/**
 * @file
 * Sorting input that is already made of a few sorted runs: the plan
 * edges of a what-if peak (swap-outs, then swap-ins) and a link's
 * host-to-device queue (ready times that mostly follow the swap-out
 * order) both arrive that way, and a full sort would pay
 * O(k log k) to rediscover the order.
 */
#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <vector>

namespace pinpoint {

/**
 * Sorts @p items by @p less by merging the maximal sorted runs
 * already in it, pairwise, pass after pass: O(k log r) for k items
 * in r runs — one comparison per item and no copy when they are
 * already sorted, and still a full sort (r <= k / 2 + 1) when they
 * are shuffled. Stable: equal items keep their order.
 */
template <class T, class Less>
void
merge_sorted_runs(std::vector<T> &items, Less less)
{
    // bounds[j] is where run j starts; the last entry is the end.
    std::vector<std::size_t> bounds = {0};
    for (std::size_t i = 1; i < items.size(); ++i)
        if (less(items[i], items[i - 1]))
            bounds.push_back(i);
    bounds.push_back(items.size());
    if (bounds.size() <= 2)
        return;
    const auto at = [](std::vector<T> &v, std::size_t i) {
        return v.begin() + static_cast<std::ptrdiff_t>(i);
    };
    std::vector<T> merged(items.size());
    while (bounds.size() > 2) {
        // Merges runs j and j + 1 into one; an odd last run is
        // copied as it is.
        std::size_t runs = 1;
        for (std::size_t j = 0; j + 1 < bounds.size(); j += 2) {
            const std::size_t lo = bounds[j];
            const std::size_t mid = bounds[j + 1];
            const std::size_t hi =
                bounds[std::min(j + 2, bounds.size() - 1)];
            std::merge(at(items, lo), at(items, mid), at(items, mid),
                       at(items, hi), at(merged, lo), less);
            bounds[runs++] = hi;
        }
        bounds.resize(runs);
        items.swap(merged);
    }
}

}  // namespace pinpoint
