#include "alloc/allocator.h"
#include "alloc/buddy_allocator.h"
#include "alloc/device_memory.h"
#include "core/check.h"
#include "core/types.h"
#include "sim/clock.h"
#include "sim/cost_model.h"

#include <algorithm>
#include <functional>
#include <vector>

namespace pinpoint {
namespace alloc {
namespace {

using FreeList = std::vector<std::size_t>;

/** @return where @p offset is, or would go, in descending @p fl. */
FreeList::iterator
position(FreeList &fl, std::size_t offset)
{
    return std::lower_bound(fl.begin(), fl.end(), offset,
                            std::greater<>());
}

void
insert_free(FreeList &fl, std::size_t offset)
{
    fl.insert(position(fl, offset), offset);
}

/** Removes @p offset from @p fl; @return whether it was there. */
bool
erase_free(FreeList &fl, std::size_t offset)
{
    const auto it = position(fl, offset);
    if (it == fl.end() || *it != offset)
        return false;
    fl.erase(it);
    return true;
}

}  // namespace

std::size_t
BuddyAllocator::round_pow2(std::size_t bytes)
{
    std::size_t p = std::size_t(1) << kMinOrder;
    while (p < bytes)
        p <<= 1;
    return p;
}

int
BuddyAllocator::order_of(std::size_t bytes)
{
    int order = kMinOrder;
    std::size_t p = std::size_t(1) << kMinOrder;
    while (p < bytes) {
        p <<= 1;
        ++order;
    }
    return order;
}

BuddyAllocator::BuddyAllocator(DeviceMemory &device,
                               sim::VirtualClock &clock,
                               const sim::CostModel &cost,
                               std::size_t arena_bytes)
    : device_(device), clock_(clock), cost_(cost)
{
    PP_CHECK(arena_bytes >= (std::size_t(1) << kMinOrder),
             "arena must hold at least one minimum block");
    arena_size_ = round_pow2(arena_bytes);
    max_order_ = order_of(arena_size_);
    clock_.advance(cost_.cuda_malloc_time());
    arena_base_ = device_.allocate(arena_size_);  // may throw OOM
    ++stats_.device_alloc_count;
    stats_.reserved_bytes = arena_size_;
    stats_.peak_reserved_bytes = arena_size_;

    free_lists_.resize(static_cast<std::size_t>(max_order_) + 1);
    free_lists_[static_cast<std::size_t>(max_order_)].push_back(0);
}

BuddyAllocator::~BuddyAllocator()
{
    if (arena_base_ != kNullDevPtr)
        device_.free(arena_base_);
}

std::size_t
BuddyAllocator::largest_free_block() const
{
    for (int o = max_order_; o >= 0; --o)
        if (!free_lists_[static_cast<std::size_t>(o)].empty())
            return std::size_t(1) << o;
    return 0;
}

Block
BuddyAllocator::allocate(std::size_t bytes)
{
    PP_CHECK(bytes > 0, "cannot allocate zero bytes");
    const int order = order_of(bytes);
    if (order > max_order_) {
        // A request no arena state could ever satisfy is still an
        // out-of-memory condition, not a usage error: callers (and
        // the sweep driver's oom/error classification) treat it the
        // same as runtime exhaustion.
        throw DeviceOomError("request " + std::to_string(bytes) +
                                 " B exceeds buddy arena of " +
                                 std::to_string(arena_size_) + " B",
                             bytes,
                             arena_size_ - stats_.allocated_bytes,
                             largest_free_block());
    }

    // Find the smallest order with a free block.
    int found = -1;
    for (int o = order; o <= max_order_; ++o) {
        if (!free_lists_[static_cast<std::size_t>(o)].empty()) {
            found = o;
            break;
        }
    }
    if (found < 0) {
        throw DeviceOomError(
            "buddy arena exhausted", std::size_t(1) << order,
            arena_size_ - stats_.allocated_bytes,
            largest_free_block());
    }

    auto &from = free_lists_[static_cast<std::size_t>(found)];
    const std::size_t offset = from.back();
    from.pop_back();
    // Split down to the requested order, freeing the upper halves.
    for (int o = found; o > order; --o) {
        const std::size_t half = std::size_t(1) << (o - 1);
        insert_free(free_lists_[static_cast<std::size_t>(o - 1)],
                    offset + half);
        ++stats_.split_count;
    }

    Block pub;
    pub.id = blocks_.size();
    pub.ptr = arena_base_ + offset;
    pub.size = std::size_t(1) << order;
    pub.requested = bytes;
    blocks_.push_back({offset, order});

    ++stats_.alloc_count;
    ++stats_.cache_hit_count;  // arena ops never touch the driver
    stats_.allocated_bytes += pub.size;
    stats_.peak_allocated_bytes =
        std::max(stats_.peak_allocated_bytes, stats_.allocated_bytes);
    clock_.advance(kOpCostNs);
    return pub;
}

void
BuddyAllocator::deallocate(BlockId id)
{
    PP_CHECK(id < blocks_.size() && blocks_[id].order >= 0,
             "deallocate of unknown block " << id);
    std::size_t offset = blocks_[id].offset;
    int order = blocks_[id].order;
    const std::size_t size = std::size_t(1) << order;
    blocks_[id].order = -1;

    // Coalesce with free buddies as far up as possible.
    while (order < max_order_) {
        const std::size_t buddy =
            offset ^ (std::size_t(1) << order);
        if (!erase_free(free_lists_[static_cast<std::size_t>(order)],
                        buddy))
            break;
        offset = std::min(offset, buddy);
        ++order;
        ++stats_.merge_count;
    }
    insert_free(free_lists_[static_cast<std::size_t>(order)], offset);

    stats_.allocated_bytes -= size;
    ++stats_.free_count;
    clock_.advance(kOpCostNs);
}

void
BuddyAllocator::check_invariants() const
{
    // Free blocks: within the arena, aligned to their size, and no
    // free block's buddy at the same order is also free (they would
    // have merged).
    std::size_t free_bytes = 0;
    for (int o = kMinOrder; o <= max_order_; ++o) {
        const auto &fl = free_lists_[static_cast<std::size_t>(o)];
        const std::size_t size = std::size_t(1) << o;
        PP_ASSERT(std::adjacent_find(fl.begin(), fl.end(),
                                     std::less_equal<>()) == fl.end(),
                  "free list at order " << o
                                        << " is not strictly descending");
        for (std::size_t offset : fl) {
            PP_ASSERT(offset % size == 0,
                      "misaligned free block at order " << o);
            PP_ASSERT(offset + size <= arena_size_,
                      "free block escapes the arena");
            if (o < max_order_) {
                const std::size_t buddy = offset ^ size;
                PP_ASSERT(!std::binary_search(fl.begin(), fl.end(),
                                              buddy, std::greater<>()),
                          "unmerged free buddies at order " << o);
            }
            free_bytes += size;
        }
    }
    std::size_t live_bytes = 0;
    std::size_t live = 0;
    for (const Placement &p : blocks_) {
        if (p.order < 0)
            continue;
        const std::size_t size = std::size_t(1) << p.order;
        PP_ASSERT(p.offset % size == 0, "misaligned live block");
        live_bytes += size;
        ++live;
    }
    PP_ASSERT(live == live_blocks(), "live block table drifted");
    PP_ASSERT(free_bytes + live_bytes == arena_size_,
              "arena bytes unaccounted: free " << free_bytes
              << " + live " << live_bytes << " != " << arena_size_);
    PP_ASSERT(live_bytes == stats_.allocated_bytes,
              "allocated_bytes stat drifted");
}

}  // namespace alloc
}  // namespace pinpoint
