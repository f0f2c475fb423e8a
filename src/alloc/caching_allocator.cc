#include "alloc/allocator.h"
#include "alloc/caching_allocator.h"
#include "alloc/device_memory.h"
#include "core/check.h"
#include "core/types.h"
#include "sim/clock.h"
#include "sim/cost_model.h"

#include <algorithm>

namespace pinpoint {
namespace alloc {
namespace {

std::size_t
round_up(std::size_t n, std::size_t a)
{
    return (n + a - 1) / a * a;
}

}  // namespace

CachingAllocator::CachingAllocator(DeviceMemory &device,
                                   sim::VirtualClock &clock,
                                   const sim::CostModel &cost)
    : device_(device), clock_(clock), cost_(cost)
{
}

CachingAllocator::~CachingAllocator() = default;

std::size_t
CachingAllocator::round_size(std::size_t bytes)
{
    if (bytes < kMinBlockSize)
        return kMinBlockSize;
    return round_up(bytes, kMinBlockSize);
}

std::size_t
CachingAllocator::allocation_size(std::size_t size)
{
    if (size <= kSmallSize)
        return kSmallBuffer;
    if (size < kMinLargeAlloc)
        return kLargeBuffer;
    return round_up(size, kRoundLarge);
}

CachingAllocator::Pool &
CachingAllocator::pool_for(std::size_t rounded)
{
    return rounded <= kSmallSize ? small_pool_ : large_pool_;
}

CachingAllocator::Pool &
CachingAllocator::pool_of(const Node &node)
{
    return node.is_small_pool ? small_pool_ : large_pool_;
}

const CachingAllocator::Pool &
CachingAllocator::pool_of(const Node &node) const
{
    return node.is_small_pool ? small_pool_ : large_pool_;
}

CachingAllocator::Node *
CachingAllocator::take_free_node(Pool &pool, std::size_t rounded)
{
    const auto it = std::lower_bound(pool.begin(), pool.end(),
                                     PoolEntry{rounded, 0, nullptr});
    if (it == pool.end())
        return nullptr;
    Node *node = it->node;
    pool.erase(it);
    return node;
}

void
CachingAllocator::pool_insert(Node *node)
{
    Pool &pool = pool_of(*node);
    const PoolEntry entry{node->size, node->ptr, node};
    pool.insert(std::lower_bound(pool.begin(), pool.end(), entry),
                entry);
}

void
CachingAllocator::pool_erase(Node *node)
{
    Pool &pool = pool_of(*node);
    const auto it = std::lower_bound(pool.begin(), pool.end(),
                                     PoolEntry{node->size, node->ptr,
                                               node});
    PP_ASSERT(it != pool.end() && it->node == node,
              "erasing a node that is not pooled");
    pool.erase(it);
}

bool
CachingAllocator::pooled(const Node &node) const
{
    const Pool &pool = pool_of(node);
    const auto it = std::lower_bound(pool.begin(), pool.end(),
                                     PoolEntry{node.size, node.ptr,
                                               nullptr});
    return it != pool.end() && it->node == &node;
}

CachingAllocator::Node *
CachingAllocator::new_node()
{
    if (spare_nodes_.empty())
        return &node_store_.emplace_back();
    Node *node = spare_nodes_.back();
    spare_nodes_.pop_back();
    *node = Node{};
    return node;
}

void
CachingAllocator::retire_node(Node *node)
{
    spare_nodes_.push_back(node);
}

CachingAllocator::Node *
CachingAllocator::allocate_segment(std::size_t rounded)
{
    const std::size_t seg_size = allocation_size(rounded);
    DevPtr base = kNullDevPtr;
    clock_.advance(cost_.cuda_malloc_time());
    try {
        base = device_.allocate(seg_size);
    } catch (const DeviceOomError &) {
        // Mirror PyTorch: release every cached-but-unused segment and
        // retry once before surfacing the OOM to the caller.
        release_cached_segments();
        clock_.advance(cost_.cuda_malloc_time());
        base = device_.allocate(seg_size);  // may rethrow
    }
    ++stats_.device_alloc_count;
    stats_.reserved_bytes += seg_size;
    stats_.peak_reserved_bytes =
        std::max(stats_.peak_reserved_bytes, stats_.reserved_bytes);

    Node *node = new_node();
    node->ptr = base;
    node->size = seg_size;
    node->is_small_pool = rounded <= kSmallSize;
    node->segment_base = base;
    node->segment_size = seg_size;
    segments_.emplace(base, node);
    return node;
}

bool
CachingAllocator::should_split(const Node &node, std::size_t rounded)
{
    const std::size_t remaining = node.size - rounded;
    if (node.is_small_pool)
        return remaining >= kMinBlockSize;
    return remaining > kSmallSize;
}

void
CachingAllocator::maybe_split(Node *node, std::size_t rounded)
{
    if (node->size == rounded || !should_split(*node, rounded))
        return;

    Node *rest = new_node();
    rest->ptr = node->ptr + rounded;
    rest->size = node->size - rounded;
    rest->allocated = false;
    rest->is_small_pool = node->is_small_pool;
    rest->segment_base = node->segment_base;
    rest->segment_size = node->segment_size;
    rest->prev = node;
    rest->next = node->next;
    if (node->next)
        node->next->prev = rest;
    node->next = rest;
    node->size = rounded;

    pool_insert(rest);
    ++stats_.split_count;
}

Block
CachingAllocator::allocate(std::size_t bytes)
{
    PP_CHECK(bytes > 0, "cannot allocate zero bytes");
    const std::size_t rounded = round_size(bytes);
    Pool &pool = pool_for(rounded);

    Node *node = take_free_node(pool, rounded);
    if (node) {
        ++stats_.cache_hit_count;
        clock_.advance(kCacheHitCostNs);
    } else {
        node = allocate_segment(rounded);
    }
    maybe_split(node, rounded);
    node->allocated = true;

    Block b;
    b.id = live_nodes_.size();
    b.ptr = node->ptr;
    b.size = node->size;
    b.requested = bytes;
    live_nodes_.push_back(node);

    ++stats_.alloc_count;
    stats_.allocated_bytes += node->size;
    stats_.peak_allocated_bytes =
        std::max(stats_.peak_allocated_bytes, stats_.allocated_bytes);
    return b;
}

CachingAllocator::Node *
CachingAllocator::merge_with(Node *node, Node *neighbor)
{
    PP_ASSERT(!neighbor->allocated, "merging with an allocated node");
    Node *first = neighbor->ptr < node->ptr ? neighbor : node;
    Node *second = first == node ? neighbor : node;
    PP_ASSERT(first->ptr + first->size == second->ptr,
              "merge candidates are not adjacent");

    pool_erase(neighbor);

    first->size += second->size;
    first->next = second->next;
    if (second->next)
        second->next->prev = first;
    retire_node(second);
    ++stats_.merge_count;
    return first;
}

void
CachingAllocator::deallocate(BlockId id)
{
    PP_CHECK(id < live_nodes_.size() && live_nodes_[id] != nullptr,
             "deallocate of unknown block " << id);
    Node *node = live_nodes_[id];
    const std::size_t size = node->size;
    live_nodes_[id] = nullptr;

    node->allocated = false;
    if (node->prev && !node->prev->allocated)
        node = merge_with(node, node->prev);
    if (node->next && !node->next->allocated)
        node = merge_with(node, node->next);
    pool_insert(node);

    stats_.allocated_bytes -= size;
    ++stats_.free_count;
    clock_.advance(kCacheFreeCostNs);
}

std::size_t
CachingAllocator::release_cached_segments()
{
    std::size_t released = 0;
    for (Pool *pool : {&small_pool_, &large_pool_}) {
        // Compacts in place, so the kept entries stay in best-fit
        // order.
        auto kept = pool->begin();
        for (const PoolEntry &entry : *pool) {
            Node *node = entry.node;
            const bool whole_segment =
                !node->prev && !node->next &&
                node->size == node->segment_size;
            if (!whole_segment) {
                *kept++ = entry;
                continue;
            }
            device_.free(node->segment_base);
            clock_.advance(cost_.cuda_free_time());
            released += node->size;
            stats_.reserved_bytes -= node->size;
            ++stats_.device_free_count;
            segments_.erase(node->segment_base);
            retire_node(node);
        }
        pool->erase(kept, pool->end());
    }
    return released;
}

void
CachingAllocator::empty_cache()
{
    release_cached_segments();
}

void
CachingAllocator::check_invariants() const
{
    std::size_t allocated = 0;
    std::size_t reserved = 0;
    std::size_t allocated_nodes = 0;
    std::size_t free_nodes = 0;
    for (const auto &[base, head] : segments_) {
        PP_ASSERT(head->ptr == base && head->segment_base == base &&
                      !head->prev,
                  "segment table does not point at a segment head");
        reserved += head->segment_size;
        std::size_t covered = 0;
        for (const Node *node = head; node; node = node->next) {
            covered += node->size;
            if (node->next) {
                PP_ASSERT(node->next->prev == node,
                          "asymmetric next/prev links");
                PP_ASSERT(node->ptr + node->size == node->next->ptr,
                          "gap or overlap between adjacent nodes");
                PP_ASSERT(node->segment_base ==
                              node->next->segment_base,
                          "next link crosses a segment boundary");
                PP_ASSERT(!(!node->allocated && !node->next->allocated),
                          "two adjacent free nodes were not merged");
            }
            if (node->allocated) {
                allocated += node->size;
                ++allocated_nodes;
            } else {
                ++free_nodes;
            }
            PP_ASSERT(node->allocated != pooled(*node),
                      "free-pool membership must equal !allocated");
        }
        PP_ASSERT(covered == head->segment_size,
                  "segment nodes do not cover the segment");
    }
    for (const Pool *pool : {&small_pool_, &large_pool_})
        PP_ASSERT(std::adjacent_find(pool->begin(), pool->end(),
                                     [](const PoolEntry &a,
                                        const PoolEntry &b) {
                                         return !(a < b);
                                     }) == pool->end(),
                  "a pool is not in strict (size, ptr) order");
    // Every pooled node was reached from a segment, so no spare
    // (recycled) node is still pooled or linked.
    PP_ASSERT(free_nodes == small_pool_.size() + large_pool_.size(),
              "a pool holds a node no segment reaches");
    PP_ASSERT(node_store_.size() ==
                  allocated_nodes + free_nodes + spare_nodes_.size(),
              "node store holds a node that is neither linked nor "
              "spare");
    std::size_t live = 0;
    for (const Node *node : live_nodes_) {
        if (!node)
            continue;
        PP_ASSERT(node->allocated, "live block maps to a free node");
        ++live;
    }
    PP_ASSERT(live == allocated_nodes && live == live_blocks(),
              "live block table drifted: " << live << " entries, "
              << allocated_nodes << " allocated nodes");
    PP_ASSERT(allocated == stats_.allocated_bytes,
              "allocated_bytes stat drifted: walked " << allocated
              << " stat " << stats_.allocated_bytes);
    PP_ASSERT(reserved == stats_.reserved_bytes,
              "reserved_bytes stat drifted: walked " << reserved
              << " stat " << stats_.reserved_bytes);
}

}  // namespace alloc
}  // namespace pinpoint
