/** @file Unit tests for the huge-page hint and page discard helpers. */
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/huge_pages.h"

namespace pinpoint {
namespace {

constexpr std::uintptr_t kHuge = kHugePageBytes;

TEST(HugePageRange, EmptyUnderOneHugePage)
{
    EXPECT_EQ(huge_page_range(0, 0).bytes, 0u);
    EXPECT_EQ(huge_page_range(4 * kHuge, kHuge - 1).bytes, 0u);
    EXPECT_EQ(huge_page_range(4 * kHuge + 64, kHuge - 64).bytes, 0u);
}

TEST(HugePageRange, ExactFitIsWhole)
{
    const AddressRange r = huge_page_range(4 * kHuge, kHuge);
    EXPECT_EQ(r.begin, 4 * kHuge);
    EXPECT_EQ(r.bytes, kHuge);
    const AddressRange three = huge_page_range(4 * kHuge, 3 * kHuge);
    EXPECT_EQ(three.begin, 4 * kHuge);
    EXPECT_EQ(three.bytes, 3 * kHuge);
}

TEST(HugePageRange, UnalignedStartKeepsOnlyWholePages)
{
    // Starts 4 KiB past a boundary: the first partial page and the
    // tail past the last boundary are both dropped.
    const AddressRange r = huge_page_range(4 * kHuge + 4096, 3 * kHuge);
    EXPECT_EQ(r.begin, 5 * kHuge);
    EXPECT_EQ(r.bytes, 2 * kHuge);
    // Two huge pages' worth of bytes that straddle one boundary
    // hold only one whole huge page.
    const AddressRange straddle =
        huge_page_range(4 * kHuge + 1, 2 * kHuge);
    EXPECT_EQ(straddle.begin, 5 * kHuge);
    EXPECT_EQ(straddle.bytes, kHuge);
    // Over one huge page in size yet holding no whole one.
    EXPECT_EQ(huge_page_range(4 * kHuge + 1, kHuge + 8).bytes, 0u);
}

TEST(WholePages, RoundsInwardToThePageSize)
{
    constexpr std::uintptr_t kPage = kPageBytes;
    EXPECT_EQ(whole_pages(8 * kPage, kPage - 1, kPage).bytes, 0u);
    const AddressRange exact = whole_pages(8 * kPage, 2 * kPage, kPage);
    EXPECT_EQ(exact.begin, 8 * kPage);
    EXPECT_EQ(exact.bytes, 2 * kPage);
    const AddressRange inner = whole_pages(8 * kPage + 1, 3 * kPage, kPage);
    EXPECT_EQ(inner.begin, 9 * kPage);
    EXPECT_EQ(inner.bytes, 2 * kPage);
    EXPECT_EQ(huge_page_range(4 * kHuge + 1, 2 * kHuge).begin,
              whole_pages(4 * kHuge + 1, 2 * kHuge, kHuge).begin);
}

TEST(DiscardPages, TouchesOnlyTheWholePagesInside)
{
    // Eight pages' worth of bytes from an unaligned start: the
    // partial pages at both ends must keep their values.
    std::vector<unsigned char> buffer(10 * kPageBytes, 0xab);
    unsigned char *start = buffer.data() + 100;
    const std::size_t bytes = 8 * kPageBytes;
    const AddressRange inside = whole_pages(
        reinterpret_cast<std::uintptr_t>(start), bytes, kPageBytes);
    ASSERT_GE(inside.bytes, 7 * kPageBytes);
    discard_pages(start, bytes);
    for (std::size_t i = 0; i < buffer.size(); ++i) {
        const auto at = reinterpret_cast<std::uintptr_t>(&buffer[i]);
        if (at >= inside.begin && at < inside.begin + inside.bytes) {
#if defined(__linux__)
            ASSERT_EQ(buffer[i], 0) << "a discarded page reads as zero";
#endif
        } else {
            ASSERT_EQ(buffer[i], 0xab) << i;
        }
    }
    // Written again, a discarded page holds what was written.
    buffer.assign(buffer.size(), 0x5c);
    EXPECT_EQ(buffer[5 * kPageBytes], 0x5c);
    discard_pages(start, 0);  // nothing whole inside: a no-op
}

TEST(ReserveHuge, ReservesAndKeepsTheContents)
{
    std::vector<std::uint64_t> small{1, 2, 3};
    reserve_huge(small, 16);
    EXPECT_GE(small.capacity(), 16u);
    EXPECT_EQ(small, (std::vector<std::uint64_t>{1, 2, 3}));

    // Large enough to hold whole huge pages: the hint applies.
    std::vector<std::uint64_t> large{7};
    reserve_huge(large, 3 * kHugePageBytes / sizeof(std::uint64_t));
    EXPECT_EQ(large.capacity(),
              3 * kHugePageBytes / sizeof(std::uint64_t));
    large.resize(large.capacity(), 9);
    EXPECT_EQ(large.front(), 7u);
    EXPECT_EQ(large.back(), 9u);
}

}  // namespace
}  // namespace pinpoint
