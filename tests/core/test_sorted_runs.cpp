/** @file Unit tests for merge_sorted_runs against std::stable_sort. */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

#include "core/sorted_runs.h"

namespace pinpoint {
namespace {

/** A key plus the position it was generated at, to observe stability. */
struct Item {
    int key = 0;
    std::size_t seq = 0;

    bool operator==(const Item &o) const
    {
        return key == o.key && seq == o.seq;
    }
};

bool
key_before(const Item &a, const Item &b)
{
    return a.key < b.key;
}

/** @return @p items sorted the reference way. */
std::vector<Item>
stable_sorted(std::vector<Item> items)
{
    std::stable_sort(items.begin(), items.end(), key_before);
    return items;
}

TEST(SortedRuns, EmptyAndSingleItemsStayAsTheyAre)
{
    std::vector<Item> none;
    merge_sorted_runs(none, key_before);
    EXPECT_TRUE(none.empty());
    std::vector<Item> one = {{4, 0}};
    merge_sorted_runs(one, key_before);
    EXPECT_EQ(one, (std::vector<Item>{{4, 0}}));
}

TEST(SortedRuns, EqualsAStableSortForAnyRunCount)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE(seed);
        std::mt19937_64 rng(seed);
        for (std::size_t runs : {1u, 2u, 3u, 6u, 17u}) {
            SCOPED_TRACE(runs);
            // Sorted runs of few distinct keys, so equal keys sit
            // inside one run and across runs.
            std::vector<Item> items;
            for (std::size_t r = 0; r < runs; ++r) {
                std::vector<int> keys(rng() % 40);
                for (int &k : keys)
                    k = static_cast<int>(rng() % 12);
                std::sort(keys.begin(), keys.end());
                for (int k : keys)
                    items.push_back({k, items.size()});
            }
            const std::vector<Item> want = stable_sorted(items);
            merge_sorted_runs(items, key_before);
            EXPECT_EQ(items, want);
        }

        std::vector<Item> shuffled;
        for (std::size_t i = 0; i < 200; ++i)
            shuffled.push_back({static_cast<int>(rng() % 50), i});
        std::shuffle(shuffled.begin(), shuffled.end(), rng);
        const std::vector<Item> want = stable_sorted(shuffled);
        merge_sorted_runs(shuffled, key_before);
        EXPECT_EQ(shuffled, want);
    }
}

}  // namespace
}  // namespace pinpoint
