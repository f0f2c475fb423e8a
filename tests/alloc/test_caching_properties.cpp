/**
 * @file
 * Property-based tests of the caching allocator: random allocate /
 * deallocate / empty_cache workloads across seeds and size profiles,
 * with the allocator's full invariant walk after every mutation
 * batch.
 */
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "alloc/caching_allocator.h"
#include "alloc/device_memory.h"
#include "sim/clock.h"
#include "sim/cost_model.h"

namespace pinpoint {
namespace alloc {
namespace {

constexpr std::size_t kMB = 1024 * 1024;

/** Size profile of a random workload. */
struct Profile {
    const char *name;
    std::size_t min_bytes;
    std::size_t max_bytes;
};

class CachingProperty
    : public ::testing::TestWithParam<std::tuple<int, Profile>>
{
};

TEST_P(CachingProperty, RandomWorkloadPreservesInvariants)
{
    const auto [seed, profile] = GetParam();
    DeviceMemory device(3ull * 1024 * kMB);
    sim::VirtualClock clock;
    sim::CostModel cost(sim::DeviceSpec::titan_x_pascal());
    CachingAllocator alloc(device, clock, cost);

    std::mt19937_64 rng(static_cast<std::uint64_t>(seed));
    std::uniform_int_distribution<std::size_t> size_dist(
        profile.min_bytes, profile.max_bytes);
    std::vector<Block> live;
    std::size_t live_bytes = 0;

    // Keep expected live volume well under the device capacity so
    // the workload probes allocator behavior, not device OOM.
    constexpr std::size_t kLiveCap = 1536ull * kMB;
    for (int step = 0; step < 1200; ++step) {
        const auto action = rng() % 100;
        if ((action < 55 && live_bytes < kLiveCap) || live.empty()) {
            const std::size_t request = size_dist(rng);
            const Block b = alloc.allocate(request);
            EXPECT_GE(b.size, b.requested);
            EXPECT_EQ(b.size % CachingAllocator::kMinBlockSize, 0u);
            live_bytes += b.size;
            live.push_back(b);
        } else if (action < 95) {
            const std::size_t i = rng() % live.size();
            live_bytes -= live[i].size;
            alloc.deallocate(live[i].id);
            live[i] = live.back();
            live.pop_back();
        } else {
            alloc.empty_cache();
        }
        if (step % 64 == 0)
            alloc.check_invariants();

        // Core accounting invariants hold at every step.
        ASSERT_EQ(alloc.stats().allocated_bytes, live_bytes);
        ASSERT_LE(alloc.stats().allocated_bytes,
                  alloc.stats().reserved_bytes);
        ASSERT_EQ(alloc.stats().reserved_bytes,
                  device.reserved_bytes());
        ASSERT_EQ(alloc.live_blocks(), live.size());
    }

    // Live blocks never overlap.
    std::vector<Block> sorted = live;
    std::sort(sorted.begin(), sorted.end(),
              [](const Block &a, const Block &b) {
                  return a.ptr < b.ptr;
              });
    for (std::size_t i = 1; i < sorted.size(); ++i) {
        ASSERT_GE(sorted[i].ptr,
                  sorted[i - 1].ptr + sorted[i - 1].size)
            << "blocks overlap";
    }

    // Drain everything: allocator and device return to pristine.
    for (const Block &b : live)
        alloc.deallocate(b.id);
    alloc.check_invariants();
    alloc.empty_cache();
    EXPECT_EQ(alloc.stats().allocated_bytes, 0u);
    EXPECT_EQ(alloc.stats().reserved_bytes, 0u);
    EXPECT_EQ(device.reserved_bytes(), 0u);
    EXPECT_EQ(alloc.stats().alloc_count, alloc.stats().free_count);
    EXPECT_EQ(alloc.stats().device_alloc_count,
              alloc.stats().device_free_count);
}

TEST(CachingRecycling, ReusedNodesKeepInvariants)
{
    // Small blocks packed into a few 2 MB segments: every allocate
    // splits, every free merges, and empty_cache retires whole
    // segments, so after the first merge each split and each new
    // segment runs on a recycled node and a recycled pool set node.
    DeviceMemory device(64 * kMB);
    sim::VirtualClock clock;
    sim::CostModel cost(sim::DeviceSpec::titan_x_pascal());
    CachingAllocator alloc(device, clock, cost);
    std::mt19937_64 rng(7);
    std::vector<Block> live;
    std::uint64_t merges_before_split = 0;
    for (int step = 0; step < 3000; ++step) {
        const auto action = rng() % 100;
        if (action < 50 || live.empty()) {
            if (alloc.stats().merge_count > 0 && merges_before_split == 0)
                merges_before_split = alloc.stats().split_count;
            live.push_back(alloc.allocate(512 * (1 + rng() % 64)));
        } else if (action < 97) {
            const std::size_t i = rng() % live.size();
            alloc.deallocate(live[i].id);
            live[i] = live.back();
            live.pop_back();
        } else {
            alloc.empty_cache();
        }
        if (step % 500 == 499) {
            // Drain, so empty_cache releases whole segments.
            for (const Block &b : live)
                alloc.deallocate(b.id);
            live.clear();
            alloc.empty_cache();
        }
        alloc.check_invariants();
        ASSERT_EQ(alloc.live_blocks(), live.size());
    }
    // Splits kept happening after merges had recycled nodes.
    EXPECT_GT(merges_before_split, 0u);
    EXPECT_GT(alloc.stats().split_count, merges_before_split + 100);
    EXPECT_GT(alloc.stats().device_free_count, 0u);
    for (const Block &b : live)
        alloc.deallocate(b.id);
    alloc.empty_cache();
    alloc.check_invariants();
    EXPECT_EQ(device.reserved_bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndProfiles, CachingProperty,
    ::testing::Combine(
        ::testing::Range(0, 6),
        ::testing::Values(
            Profile{"small", 1, 64 * 1024},
            Profile{"mixed", 256, 8 * kMB},
            Profile{"large", kMB, 64 * kMB})),
    [](const auto &info) {
        return std::string(std::get<1>(info.param).name) + "_seed" +
               std::to_string(std::get<0>(info.param));
    });

}  // namespace
}  // namespace alloc
}  // namespace pinpoint
