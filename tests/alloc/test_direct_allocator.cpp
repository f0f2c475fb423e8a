/** @file Unit tests for the direct (cudaMalloc-per-tensor) baseline. */
#include <gtest/gtest.h>

#include "alloc/device_memory.h"
#include "alloc/direct_allocator.h"
#include "sim/clock.h"
#include "sim/cost_model.h"

namespace pinpoint {
namespace alloc {
namespace {

class DirectAllocatorTest : public ::testing::Test
{
  protected:
    DeviceMemory device_{256ull * 1024 * 1024};
    sim::VirtualClock clock_;
    sim::CostModel cost_{sim::DeviceSpec::titan_x_pascal()};
    DirectAllocator alloc_{device_, clock_, cost_};
};

TEST_F(DirectAllocatorTest, EveryAllocationIsADriverCall)
{
    alloc_.allocate(1024);
    alloc_.allocate(2048);
    EXPECT_EQ(alloc_.stats().alloc_count, 2u);
    EXPECT_EQ(alloc_.stats().device_alloc_count, 2u);
    EXPECT_EQ(alloc_.stats().cache_hit_count, 0u);
}

TEST_F(DirectAllocatorTest, AdvancesClockByDriverCosts)
{
    const TimeNs t0 = clock_.now();
    const Block b = alloc_.allocate(1024);
    EXPECT_EQ(clock_.now() - t0, cost_.cuda_malloc_time());
    const TimeNs t1 = clock_.now();
    alloc_.deallocate(b.id);
    EXPECT_EQ(clock_.now() - t1, cost_.cuda_free_time());
}

TEST_F(DirectAllocatorTest, BlockIdsAreNeverReused)
{
    const Block a = alloc_.allocate(512);
    alloc_.deallocate(a.id);
    const Block b = alloc_.allocate(512);
    EXPECT_NE(a.id, b.id);
    EXPECT_EQ(b.ptr, a.ptr) << "memory may be reused; ids may not";
}

TEST_F(DirectAllocatorTest, StatsTrackLiveBytes)
{
    const Block a = alloc_.allocate(1024 * 1024);
    EXPECT_EQ(alloc_.stats().allocated_bytes, 1024u * 1024u);
    EXPECT_EQ(alloc_.stats().reserved_bytes, 1024u * 1024u);
    alloc_.deallocate(a.id);
    EXPECT_EQ(alloc_.stats().allocated_bytes, 0u);
    EXPECT_EQ(alloc_.stats().reserved_bytes, 0u);
    EXPECT_EQ(alloc_.stats().peak_allocated_bytes, 1024u * 1024u);
}

TEST_F(DirectAllocatorTest, BlockLookupAndErrors)
{
    const Block a = alloc_.allocate(4096);
    EXPECT_EQ(a.id, 0u);
    EXPECT_EQ(alloc_.live_blocks(), 1u);
    alloc_.deallocate(a.id);
    EXPECT_EQ(alloc_.live_blocks(), 0u);
    EXPECT_THROW(alloc_.deallocate(a.id), Error);
    EXPECT_THROW(alloc_.deallocate(a.id + 1), Error);
    EXPECT_THROW(alloc_.allocate(0), Error);
}

TEST_F(DirectAllocatorTest, PropagatesDeviceOom)
{
    alloc_.allocate(200ull * 1024 * 1024);
    EXPECT_THROW(alloc_.allocate(100ull * 1024 * 1024),
                 DeviceOomError);
}

}  // namespace
}  // namespace alloc
}  // namespace pinpoint
