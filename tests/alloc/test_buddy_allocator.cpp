/** @file Unit and property tests for the buddy allocator. */
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "alloc/buddy_allocator.h"
#include "alloc/device_memory.h"
#include "sim/clock.h"
#include "sim/cost_model.h"

namespace pinpoint {
namespace alloc {
namespace {

constexpr std::size_t kMB = 1024 * 1024;

class BuddyTest : public ::testing::Test
{
  protected:
    DeviceMemory device_{256 * kMB};
    sim::VirtualClock clock_;
    sim::CostModel cost_{sim::DeviceSpec::tiny_test_device()};
    BuddyAllocator alloc_{device_, clock_, cost_, 64 * kMB};
};

TEST(BuddyRounding, RoundPow2)
{
    EXPECT_EQ(BuddyAllocator::round_pow2(1), 512u);
    EXPECT_EQ(BuddyAllocator::round_pow2(512), 512u);
    EXPECT_EQ(BuddyAllocator::round_pow2(513), 1024u);
    EXPECT_EQ(BuddyAllocator::round_pow2(3 * kMB), 4 * kMB);
}

TEST_F(BuddyTest, ArenaReservedUpFront)
{
    EXPECT_EQ(alloc_.arena_bytes(), 64 * kMB);
    EXPECT_EQ(device_.reserved_bytes(), 64 * kMB);
    EXPECT_EQ(alloc_.stats().device_alloc_count, 1u);
    alloc_.check_invariants();
}

TEST_F(BuddyTest, BlocksArePow2AndAligned)
{
    const Block b = alloc_.allocate(3000);
    EXPECT_EQ(b.size, 4096u);
    EXPECT_EQ(b.requested, 3000u);
    EXPECT_EQ((b.ptr - DeviceMemory::kBaseAddress) % b.size, 0u);
    alloc_.check_invariants();
}

TEST_F(BuddyTest, SplitAndCoalesceRoundTrip)
{
    const Block a = alloc_.allocate(512);
    EXPECT_GT(alloc_.stats().split_count, 0u)
        << "first small block splits the arena down";
    alloc_.deallocate(a.id);
    EXPECT_GT(alloc_.stats().merge_count, 0u);
    alloc_.check_invariants();
    // After full coalescing, the arena-sized block is available
    // again.
    const Block whole = alloc_.allocate(64 * kMB);
    EXPECT_EQ(whole.size, 64 * kMB);
    alloc_.check_invariants();
}

TEST_F(BuddyTest, BuddiesOnlyMergeWithTheirPair)
{
    const Block a = alloc_.allocate(kMB);
    const Block b = alloc_.allocate(kMB);
    const Block c = alloc_.allocate(kMB);
    (void)a;
    alloc_.deallocate(b.id);
    alloc_.check_invariants();
    alloc_.deallocate(c.id);
    alloc_.check_invariants();
    // a is still live: the arena cannot fully coalesce.
    EXPECT_THROW(alloc_.allocate(64 * kMB), DeviceOomError);
}

TEST_F(BuddyTest, InternalFragmentationIsVisible)
{
    // 33 MB rounds to 64 MB: nearly half the block is waste — the
    // buddy trade-off the ablation quantifies.
    const Block b = alloc_.allocate(33 * kMB);
    EXPECT_EQ(b.size, 64 * kMB);
    EXPECT_EQ(alloc_.stats().allocated_bytes, 64 * kMB);
    alloc_.check_invariants();
}

TEST_F(BuddyTest, OversizedRequestRejected)
{
    EXPECT_THROW(alloc_.allocate(65 * kMB), Error);
}

TEST_F(BuddyTest, ExhaustionThrowsOom)
{
    alloc_.allocate(32 * kMB);
    alloc_.allocate(32 * kMB);
    EXPECT_THROW(alloc_.allocate(512), DeviceOomError);
}

TEST_F(BuddyTest, ErrorsOnBadArguments)
{
    EXPECT_THROW(alloc_.allocate(0), Error);
    EXPECT_THROW(alloc_.deallocate(42), Error);
    const Block a = alloc_.allocate(4096);
    alloc_.deallocate(a.id);
    EXPECT_THROW(alloc_.deallocate(a.id), Error);  // double free
}

TEST_F(BuddyTest, ArenaReleasedOnDestruction)
{
    {
        BuddyAllocator local(device_, clock_, cost_, 16 * kMB);
        EXPECT_EQ(device_.reserved_bytes(), (64 + 16) * kMB);
    }
    EXPECT_EQ(device_.reserved_bytes(), 64 * kMB);
}

class BuddyProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(BuddyProperty, RandomWorkloadPreservesInvariants)
{
    DeviceMemory device(512 * kMB);
    sim::VirtualClock clock;
    sim::CostModel cost(sim::DeviceSpec::tiny_test_device());
    BuddyAllocator alloc(device, clock, cost, 256 * kMB);

    std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
    std::uniform_int_distribution<std::size_t> size_dist(1, 4 * kMB);
    std::vector<Block> live;
    std::size_t live_bytes = 0;

    for (int step = 0; step < 1500; ++step) {
        if ((rng() % 100 < 55 && live_bytes < 128 * kMB) ||
            live.empty()) {
            try {
                const Block b = alloc.allocate(size_dist(rng));
                live_bytes += b.size;
                live.push_back(b);
            } catch (const DeviceOomError &) {
                // Internal fragmentation can exhaust the arena
                // early; that is legal. Drain something instead.
                ASSERT_FALSE(live.empty());
            }
        } else {
            const std::size_t i = rng() % live.size();
            live_bytes -= live[i].size;
            alloc.deallocate(live[i].id);
            live[i] = live.back();
            live.pop_back();
        }
        ASSERT_EQ(alloc.stats().allocated_bytes, live_bytes);
        if (step % 128 == 0)
            alloc.check_invariants();
    }
    for (const Block &b : live)
        alloc.deallocate(b.id);
    alloc.check_invariants();
    EXPECT_EQ(alloc.stats().allocated_bytes, 0u);
    // Everything coalesced: the whole arena is one block again.
    EXPECT_EQ(alloc.allocate(256 * kMB).size, 256 * kMB);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuddyProperty, ::testing::Range(0, 6));

}  // namespace
}  // namespace alloc
}  // namespace pinpoint
