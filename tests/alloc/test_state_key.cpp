/**
 * @file
 * State keys and fast-forward of the three allocators: a key returns
 * when a span of calls frees what it allocated, tells apart states
 * that differ only in which id holds a block, and a fast-forward
 * leaves an allocator as replaying the span would.
 */
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "alloc/allocator.h"
#include "alloc/buddy_allocator.h"
#include "alloc/caching_allocator.h"
#include "alloc/device_memory.h"
#include "alloc/direct_allocator.h"
#include "core/check.h"
#include "sim/clock.h"
#include "sim/cost_model.h"

namespace pinpoint {
namespace alloc {
namespace {

constexpr std::size_t kMB = 1024 * 1024;

/** One allocator of a kind on its own device and clock. */
struct Rig {
    explicit Rig(const std::string &kind)
        : device(4096 * kMB), cost(sim::DeviceSpec::titan_x_pascal())
    {
        if (kind == "caching")
            alloc = std::make_unique<CachingAllocator>(device, clock,
                                                       cost);
        else if (kind == "direct")
            alloc = std::make_unique<DirectAllocator>(device, clock,
                                                      cost);
        else
            alloc = std::make_unique<BuddyAllocator>(device, clock, cost,
                                                     2048 * kMB);
    }

    StateKey
    key() const
    {
        StateKey k;
        alloc->append_state_key(k);
        return k;
    }

    /** Allocates and frees a few blocks of both pools. */
    void
    span()
    {
        std::vector<Block> blocks;
        for (std::size_t bytes : {300 * kMB / 1024, 3 * kMB, kMB / 1024, 30 * kMB})
            blocks.push_back(alloc->allocate(bytes));
        alloc->deallocate(blocks[1].id);
        blocks.push_back(alloc->allocate(kMB));
        for (std::size_t i : {0u, 2u, 3u, 4u})
            alloc->deallocate(blocks[i].id);
    }

    DeviceMemory device;
    sim::VirtualClock clock;
    sim::CostModel cost;
    std::unique_ptr<Allocator> alloc;
};

const char *const kKinds[] = {"caching", "direct", "buddy"};

TEST(StateKey, ReturnsWhenASpanFreesWhatItAllocated)
{
    for (const char *kind : kKinds) {
        SCOPED_TRACE(kind);
        Rig rig(kind);
        rig.alloc->allocate(5 * kMB);
        rig.span();  // a caching allocator grows its cache here
        const StateKey before = rig.key();
        rig.span();
        EXPECT_EQ(rig.key(), before);
        rig.alloc->allocate(kMB);
        EXPECT_NE(rig.key(), before);
    }
}

TEST(StateKey, TellsApartWhichIdHoldsABlock)
{
    for (const char *kind : kKinds) {
        SCOPED_TRACE(kind);
        Rig first(kind);
        first.alloc->allocate(kMB);
        Rig second(kind);
        second.alloc->deallocate(second.alloc->allocate(kMB).id);
        // The same placement, held by id 0 in one and id 1 in the
        // other.
        const Block b = second.alloc->allocate(kMB);
        ASSERT_EQ(b.id, 1u);
        EXPECT_NE(first.key(), second.key());
    }
}

TEST(StateKey, FastForwardEqualsReplay)
{
    for (const char *kind : kKinds) {
        SCOPED_TRACE(kind);
        Rig replayed(kind);
        Rig skipped(kind);
        for (Rig *rig : {&replayed, &skipped}) {
            rig->alloc->allocate(5 * kMB);
            rig->span();
        }
        const AllocatorStats from = skipped.alloc->stats();
        skipped.span();
        const AllocatorStats to = skipped.alloc->stats();
        for (int i = 0; i < 4; ++i)
            replayed.span();
        for (int i = 0; i < 3; ++i)
            skipped.alloc->fast_forward(from, to);

        const AllocatorStats &r = replayed.alloc->stats();
        const AllocatorStats &s = skipped.alloc->stats();
        EXPECT_EQ(s.alloc_count, r.alloc_count);
        EXPECT_EQ(s.free_count, r.free_count);
        EXPECT_EQ(s.device_alloc_count, r.device_alloc_count);
        EXPECT_EQ(s.device_free_count, r.device_free_count);
        EXPECT_EQ(s.cache_hit_count, r.cache_hit_count);
        EXPECT_EQ(s.split_count, r.split_count);
        EXPECT_EQ(s.merge_count, r.merge_count);
        EXPECT_EQ(s.allocated_bytes, r.allocated_bytes);
        EXPECT_EQ(s.reserved_bytes, r.reserved_bytes);
        EXPECT_EQ(s.peak_allocated_bytes, r.peak_allocated_bytes);
        EXPECT_EQ(s.peak_reserved_bytes, r.peak_reserved_bytes);
        EXPECT_EQ(skipped.key(), replayed.key());
        const Block next_r = replayed.alloc->allocate(2 * kMB);
        const Block next_s = skipped.alloc->allocate(2 * kMB);
        EXPECT_EQ(next_s.id, next_r.id);
        EXPECT_EQ(next_s.ptr, next_r.ptr);
        // The skipped ids are dead.
        EXPECT_THROW(skipped.alloc->deallocate(next_s.id - 1), Error);
        skipped.alloc->deallocate(0);
        skipped.alloc->deallocate(next_s.id);
        EXPECT_EQ(skipped.alloc->live_blocks(), 0u);
    }
}

TEST(StateKey, FastForwardRejectsASpanThatDoesNotRepeat)
{
    for (const char *kind : kKinds) {
        SCOPED_TRACE(kind);
        Rig rig(kind);
        const AllocatorStats from = rig.alloc->stats();
        rig.alloc->allocate(kMB);  // never freed
        const AllocatorStats to = rig.alloc->stats();
        EXPECT_THROW(rig.alloc->fast_forward(from, to), Error);

        // A span whose peak lies above the allocator's.
        Rig fresh(kind);
        AllocatorStats higher = fresh.alloc->stats();
        higher.peak_allocated_bytes += kMB;
        EXPECT_THROW(fresh.alloc->fast_forward(fresh.alloc->stats(),
                                               higher),
                     Error);
    }
}

}  // namespace
}  // namespace alloc
}  // namespace pinpoint
