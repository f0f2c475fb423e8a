/** @file Unit tests for the simulated device address space. */
#include <gtest/gtest.h>

#include "alloc/device_memory.h"

namespace pinpoint {
namespace alloc {
namespace {

constexpr std::size_t kMB = 1024 * 1024;

TEST(DeviceMemory, AllocationsAreAlignedAndDisjoint)
{
    DeviceMemory dm(64 * kMB);
    const DevPtr a = dm.allocate(1000);
    const DevPtr b = dm.allocate(1000);
    EXPECT_EQ(a % DeviceMemory::kSegmentAlignment, 0u);
    EXPECT_EQ(b % DeviceMemory::kSegmentAlignment, 0u);
    EXPECT_GE(b, a + 1024);  // rounded to alignment
    EXPECT_EQ(dm.reservation_size(a), 1024u);
}

TEST(DeviceMemory, ReservedBytesTracksRoundedSizes)
{
    DeviceMemory dm(64 * kMB);
    dm.allocate(1);
    EXPECT_EQ(dm.reserved_bytes(), 512u);
    dm.allocate(512);
    EXPECT_EQ(dm.reserved_bytes(), 1024u);
}

TEST(DeviceMemory, FreeReturnsMemory)
{
    DeviceMemory dm(64 * kMB);
    const DevPtr a = dm.allocate(kMB);
    dm.free(a);
    EXPECT_EQ(dm.reserved_bytes(), 0u);
    EXPECT_EQ(dm.free_bytes(), dm.capacity());
    EXPECT_EQ(dm.largest_free_region(), dm.capacity());
}

TEST(DeviceMemory, FirstFitReusesLowestHole)
{
    DeviceMemory dm(64 * kMB);
    const DevPtr a = dm.allocate(kMB);
    const DevPtr b = dm.allocate(kMB);
    (void)b;
    dm.free(a);
    const DevPtr c = dm.allocate(kMB / 2);
    EXPECT_EQ(c, a) << "first fit must reuse the first hole";
}

TEST(DeviceMemory, CoalescesAdjacentFreeRegions)
{
    DeviceMemory dm(8 * kMB);
    const DevPtr a = dm.allocate(2 * kMB);
    const DevPtr b = dm.allocate(2 * kMB);
    const DevPtr c = dm.allocate(2 * kMB);
    dm.allocate(2 * kMB);  // fill the tail
    dm.free(a);
    dm.free(c);
    // a and c are separated by live b: largest hole is 2 MB.
    EXPECT_EQ(dm.largest_free_region(), 2 * kMB);
    dm.free(b);
    // Now a+b+c coalesce into 6 MB.
    EXPECT_EQ(dm.largest_free_region(), 6 * kMB);
}

TEST(DeviceMemory, OomCarriesDiagnostics)
{
    DeviceMemory dm(4 * kMB);
    dm.allocate(3 * kMB);
    try {
        dm.allocate(2 * kMB);
        FAIL() << "expected DeviceOomError";
    } catch (const DeviceOomError &e) {
        EXPECT_EQ(e.requested, 2 * kMB);
        EXPECT_EQ(e.free_bytes, kMB);
        EXPECT_EQ(e.largest_region, kMB);
    }
}

TEST(DeviceMemory, OomOnFragmentationDespiteEnoughTotalFree)
{
    DeviceMemory dm(6 * kMB);
    const DevPtr a = dm.allocate(2 * kMB);
    const DevPtr b = dm.allocate(2 * kMB);
    const DevPtr c = dm.allocate(2 * kMB);
    (void)b;
    dm.free(a);
    dm.free(c);
    EXPECT_EQ(dm.free_bytes(), 4 * kMB);
    EXPECT_THROW(dm.allocate(3 * kMB), DeviceOomError);
    EXPECT_GT(dm.external_fragmentation(), 0.0);
}

TEST(DeviceMemory, ExternalFragmentationZeroWhenContiguous)
{
    DeviceMemory dm(8 * kMB);
    dm.allocate(kMB);
    EXPECT_DOUBLE_EQ(dm.external_fragmentation(), 0.0);
}

TEST(DeviceMemory, DoubleFreeRejected)
{
    DeviceMemory dm(4 * kMB);
    const DevPtr a = dm.allocate(kMB);
    dm.free(a);
    EXPECT_THROW(dm.free(a), Error);
}

TEST(DeviceMemory, FreeOfUnknownPointerRejected)
{
    DeviceMemory dm(4 * kMB);
    EXPECT_THROW(dm.free(0xdeadbeef), Error);
}

TEST(DeviceMemory, ZeroAllocationRejected)
{
    DeviceMemory dm(4 * kMB);
    EXPECT_THROW(dm.allocate(0), Error);
}

TEST(DeviceMemory, PeakReservedIsHighWaterMark)
{
    DeviceMemory dm(16 * kMB);
    const DevPtr a = dm.allocate(4 * kMB);
    dm.allocate(2 * kMB);
    dm.free(a);
    EXPECT_EQ(dm.reserved_bytes(), 2 * kMB);
    EXPECT_EQ(dm.peak_reserved_bytes(), 6 * kMB);
}

TEST(DeviceMemory, ExhaustiveFillThenDrainRestoresInitialState)
{
    DeviceMemory dm(4 * kMB);
    std::vector<DevPtr> ptrs;
    for (int i = 0; i < 8; ++i)
        ptrs.push_back(dm.allocate(kMB / 2));
    EXPECT_THROW(dm.allocate(512), DeviceOomError);
    for (DevPtr p : ptrs)
        dm.free(p);
    EXPECT_EQ(dm.free_bytes(), dm.capacity());
    EXPECT_EQ(dm.largest_free_region(), dm.capacity());
}

}  // namespace
}  // namespace alloc
}  // namespace pinpoint
