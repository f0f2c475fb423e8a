/** @file Unit tests for FlatTable against std::unordered_map. */
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <random>
#include <unordered_map>
#include <vector>

#include "core/flat_table.h"

namespace pinpoint {
namespace {

TEST(FlatTable, InsertFindErase)
{
    FlatTable<std::uint64_t, int> table;
    EXPECT_EQ(table.find(5), nullptr);
    auto entry = table.try_emplace(5);
    EXPECT_TRUE(entry.second);
    EXPECT_EQ(entry.first, 0);  // value-initialized
    entry.first = 7;
    EXPECT_FALSE(table.try_emplace(5).second);
    ASSERT_NE(table.find(5), nullptr);
    EXPECT_EQ(*table.find(5), 7);
    EXPECT_EQ(table.erase(6), std::nullopt);  // absent: no effect
    EXPECT_EQ(table.size(), 1u);
    EXPECT_EQ(table.erase(5), 7) << "erase returns the removed value";
    EXPECT_EQ(table.find(5), nullptr);
    EXPECT_EQ(table.size(), 0u);
}

TEST(FlatTable, RandomOpsMatchUnorderedMap)
{
    // Dense keys, keys sharing their low bits, and keys at the top of
    // the range, so probe runs collide, wrap and shift back on erase.
    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = 0; k < 64; ++k) {
        keys.push_back(k);
        keys.push_back(k << 20);
        keys.push_back(~std::uint64_t{0} - k);
    }
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        SCOPED_TRACE(seed);
        std::mt19937_64 rng(seed);
        FlatTable<std::uint64_t, std::uint64_t> table(seed % 3 * 16);
        std::unordered_map<std::uint64_t, std::uint64_t> ref;
        for (int step = 0; step < 4000; ++step) {
            const std::uint64_t key = keys[rng() % keys.size()];
            switch (rng() % 3) {
              case 0: {
                const auto entry = table.try_emplace(key);
                const bool inserted = ref.emplace(key, 0).second;
                ASSERT_EQ(entry.second, inserted);
                entry.first = step;
                ref[key] = step;
                break;
              }
              case 1: {
                const auto it = ref.find(key);
                const std::optional<std::uint64_t> removed =
                    table.erase(key);
                ASSERT_EQ(removed.has_value(), it != ref.end());
                if (removed) {
                    ASSERT_EQ(*removed, it->second);
                    ref.erase(it);
                }
                break;
              }
              default: {
                const std::uint64_t *found = table.find(key);
                const auto it = ref.find(key);
                ASSERT_EQ(found != nullptr, it != ref.end());
                if (found) {
                    ASSERT_EQ(*found, it->second);
                }
              }
            }
            ASSERT_EQ(table.size(), ref.size());
        }
        for (std::uint64_t key : keys) {
            const std::uint64_t *found = table.find(key);
            ASSERT_EQ(found != nullptr, ref.count(key) == 1);
        }
    }
}

}  // namespace
}  // namespace pinpoint
