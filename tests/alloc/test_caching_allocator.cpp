/** @file Unit tests for the PyTorch-style caching allocator. */
#include <gtest/gtest.h>

#include "alloc/caching_allocator.h"
#include "alloc/device_memory.h"
#include "sim/clock.h"
#include "sim/cost_model.h"

namespace pinpoint {
namespace alloc {
namespace {

constexpr std::size_t kKB = 1024;
constexpr std::size_t kMB = 1024 * 1024;

class CachingAllocatorTest : public ::testing::Test
{
  protected:
    DeviceMemory device_{2ull * 1024 * kMB};
    sim::VirtualClock clock_;
    sim::CostModel cost_{sim::DeviceSpec::titan_x_pascal()};
    CachingAllocator alloc_{device_, clock_, cost_};
};

TEST(CachingAllocatorRounding, RoundSizeTo512Multiples)
{
    EXPECT_EQ(CachingAllocator::round_size(1), 512u);
    EXPECT_EQ(CachingAllocator::round_size(512), 512u);
    EXPECT_EQ(CachingAllocator::round_size(513), 1024u);
    EXPECT_EQ(CachingAllocator::round_size(100 * kKB),
              100u * kKB);  // already a multiple
}

TEST(CachingAllocatorRounding, AllocationSizeTiers)
{
    // Small requests back onto 2 MB segments.
    EXPECT_EQ(CachingAllocator::allocation_size(512), 2 * kMB);
    EXPECT_EQ(CachingAllocator::allocation_size(1 * kMB), 2 * kMB);
    // Mid-size requests onto 20 MB segments.
    EXPECT_EQ(CachingAllocator::allocation_size(1 * kMB + 512),
              20 * kMB);
    EXPECT_EQ(CachingAllocator::allocation_size(9 * kMB), 20 * kMB);
    // Huge requests round to 2 MB granularity.
    EXPECT_EQ(CachingAllocator::allocation_size(10 * kMB), 10 * kMB);
    EXPECT_EQ(CachingAllocator::allocation_size(11 * kMB), 12 * kMB);
}

TEST_F(CachingAllocatorTest, FirstSmallAllocationCreatesSegment)
{
    const Block b = alloc_.allocate(1000);
    EXPECT_EQ(b.size, 1024u);
    EXPECT_EQ(b.requested, 1000u);
    EXPECT_EQ(alloc_.stats().device_alloc_count, 1u);
    EXPECT_EQ(alloc_.stats().reserved_bytes, 2 * kMB);
    EXPECT_EQ(alloc_.stats().allocated_bytes, 1024u);
    EXPECT_EQ(alloc_.stats().split_count, 1u);
    alloc_.check_invariants();
}

TEST_F(CachingAllocatorTest, SecondSmallAllocationReusesSegment)
{
    alloc_.allocate(1000);
    alloc_.allocate(1000);
    EXPECT_EQ(alloc_.stats().device_alloc_count, 1u)
        << "both fit in one 2 MB segment";
    EXPECT_EQ(alloc_.stats().cache_hit_count, 1u);
    alloc_.check_invariants();
}

TEST_F(CachingAllocatorTest, FreeThenAllocateSameSizeIsAHit)
{
    const Block a = alloc_.allocate(300 * kKB);
    const DevPtr ptr = a.ptr;
    alloc_.deallocate(a.id);
    const Block b = alloc_.allocate(300 * kKB);
    EXPECT_EQ(b.ptr, ptr) << "cached block must be reused";
    EXPECT_EQ(alloc_.stats().device_alloc_count, 1u);
    EXPECT_NE(a.id, b.id);
    alloc_.check_invariants();
}

TEST_F(CachingAllocatorTest, CacheHitIsFastMissIsSlow)
{
    const TimeNs t0 = clock_.now();
    const Block a = alloc_.allocate(64 * kKB);  // miss: cudaMalloc
    const TimeNs miss_cost = clock_.now() - t0;
    alloc_.deallocate(a.id);
    const TimeNs t1 = clock_.now();
    alloc_.allocate(64 * kKB);  // hit
    const TimeNs hit_cost = clock_.now() - t1;
    EXPECT_GE(miss_cost, cost_.cuda_malloc_time());
    EXPECT_LT(hit_cost, miss_cost / 10);
}

TEST_F(CachingAllocatorTest, AdjacentFreeBlocksMerge)
{
    const Block a = alloc_.allocate(256 * kKB);
    const Block b = alloc_.allocate(256 * kKB);
    const Block c = alloc_.allocate(256 * kKB);
    ASSERT_EQ(b.ptr, a.ptr + a.size) << "expected contiguous split";
    alloc_.deallocate(a.id);
    EXPECT_EQ(alloc_.stats().merge_count, 0u)
        << "a has no free neighbors (b live, segment head)";
    alloc_.deallocate(c.id);
    EXPECT_EQ(alloc_.stats().merge_count, 1u)
        << "c merges with the free segment-tail remainder";
    alloc_.deallocate(b.id);
    EXPECT_EQ(alloc_.stats().merge_count, 3u)
        << "b merges with a and with the merged c+tail";
    // The whole segment is one free block again: a full-size small
    // request must be served from it without a new segment.
    const auto before = alloc_.stats().device_alloc_count;
    const Block d = alloc_.allocate(1 * kMB);
    EXPECT_EQ(d.ptr, a.ptr);
    EXPECT_EQ(alloc_.stats().device_alloc_count, before);
    alloc_.check_invariants();
}

TEST_F(CachingAllocatorTest, LargePoolDoesNotSplitSmallRemainders)
{
    // 19.5 MB from a 20 MB segment: remainder 0.5 MB <= 1 MB is kept
    // attached (no split), so the block is 20 MB.
    const Block b = alloc_.allocate(19 * kMB + 512 * kKB);
    EXPECT_EQ(b.size, 20 * kMB);
    EXPECT_EQ(alloc_.stats().split_count, 0u);
    alloc_.check_invariants();
}

TEST_F(CachingAllocatorTest, HugeRequestsGetExactRoundedSegments)
{
    // >= 10 MB requests allocate exact 2 MB-rounded segments.
    const Block b = alloc_.allocate(12 * kMB);
    EXPECT_EQ(b.size, 12 * kMB);
    EXPECT_EQ(alloc_.stats().split_count, 0u);
    // 12 MB + 1 B rounds to 12 MB + 512 B and rides a 14 MB segment;
    // the ~2 MB remainder (> 1 MB) is split off for reuse.
    const Block c = alloc_.allocate(12 * kMB + 1);
    EXPECT_EQ(c.size, 12 * kMB + 512);
    EXPECT_EQ(alloc_.stats().split_count, 1u);
    alloc_.check_invariants();
}

TEST_F(CachingAllocatorTest, LargePoolSplitsBigRemainders)
{
    // 5 MB rides a 20 MB segment; the 15 MB remainder (> 1 MB)
    // splits off and serves the next large request with no new
    // segment.
    const Block b = alloc_.allocate(5 * kMB);
    EXPECT_EQ(b.size, 5 * kMB);
    EXPECT_EQ(alloc_.stats().split_count, 1u);
    const auto before = alloc_.stats().device_alloc_count;
    const Block c = alloc_.allocate(8 * kMB);
    EXPECT_EQ(c.ptr, b.ptr + b.size);
    EXPECT_EQ(alloc_.stats().device_alloc_count, before);
    alloc_.check_invariants();
}

TEST_F(CachingAllocatorTest, SmallAndLargePoolsAreSeparate)
{
    const Block small = alloc_.allocate(100 * kKB);
    const Block large = alloc_.allocate(5 * kMB);
    alloc_.deallocate(small.id);
    alloc_.deallocate(large.id);
    // A small request must not carve the cached large block.
    const Block again = alloc_.allocate(100 * kKB);
    EXPECT_EQ(again.ptr, small.ptr);
    alloc_.check_invariants();
}

TEST_F(CachingAllocatorTest, EmptyCacheReleasesWholeFreeSegments)
{
    const Block a = alloc_.allocate(1 * kMB);
    const Block b = alloc_.allocate(5 * kMB);
    alloc_.deallocate(a.id);
    alloc_.deallocate(b.id);
    EXPECT_EQ(alloc_.stats().reserved_bytes, 22 * kMB);
    alloc_.empty_cache();
    EXPECT_EQ(alloc_.stats().reserved_bytes, 0u);
    EXPECT_EQ(device_.reserved_bytes(), 0u);
    EXPECT_EQ(alloc_.stats().device_free_count, 2u);
    alloc_.check_invariants();
}

TEST_F(CachingAllocatorTest, EmptyCacheKeepsPartiallyUsedSegments)
{
    const Block a = alloc_.allocate(100 * kKB);
    const Block b = alloc_.allocate(100 * kKB);
    alloc_.deallocate(a.id);
    alloc_.empty_cache();
    // b's segment is still in use: nothing released.
    EXPECT_EQ(alloc_.stats().reserved_bytes, 2 * kMB);
    alloc_.deallocate(b.id);
    alloc_.empty_cache();
    EXPECT_EQ(alloc_.stats().reserved_bytes, 0u);
}

TEST_F(CachingAllocatorTest, EachPoolGetsOneSegmentCoveredByItsBlocks)
{
    alloc_.allocate(100 * kKB);
    alloc_.allocate(3 * kMB);
    // One 2 MiB small-pool segment and one 20 MiB large-pool one.
    EXPECT_EQ(alloc_.stats().device_alloc_count, 2u);
    EXPECT_EQ(alloc_.stats().reserved_bytes, 22 * kMB);
    // Each segment's blocks tile it exactly.
    alloc_.check_invariants();
}

TEST_F(CachingAllocatorTest, ErrorsOnBadArguments)
{
    EXPECT_THROW(alloc_.allocate(0), Error);
    EXPECT_THROW(alloc_.deallocate(999), Error);
    const Block a = alloc_.allocate(4096);
    alloc_.deallocate(a.id);
    EXPECT_THROW(alloc_.deallocate(a.id), Error);  // double free
}

TEST(CachingAllocatorOom, ReleasesCacheAndRetriesBeforeThrowing)
{
    DeviceMemory device(64 * kMB);
    sim::VirtualClock clock;
    sim::CostModel cost(sim::DeviceSpec::tiny_test_device());
    CachingAllocator alloc(device, clock, cost);

    const Block a = alloc.allocate(40 * kMB);
    alloc.deallocate(a.id);  // cached: device still 40 MB reserved
    EXPECT_EQ(device.reserved_bytes(), 40 * kMB);
    // 60 MB does not fit beside the cached 40 MB; the allocator must
    // release its cache and retry successfully.
    const Block b = alloc.allocate(60 * kMB);
    EXPECT_EQ(b.size, 60 * kMB);
    EXPECT_EQ(alloc.stats().device_free_count, 1u);
    alloc.check_invariants();
}

TEST(CachingAllocatorOom, ThrowsWhenTrulyExhausted)
{
    DeviceMemory device(32 * kMB);
    sim::VirtualClock clock;
    sim::CostModel cost(sim::DeviceSpec::tiny_test_device());
    CachingAllocator alloc(device, clock, cost);
    alloc.allocate(20 * kMB);
    EXPECT_THROW(alloc.allocate(20 * kMB), DeviceOomError);
}

}  // namespace
}  // namespace alloc
}  // namespace pinpoint
