/**
 * @file
 * PyTorch-style caching device allocator.
 *
 * Reimplements the algorithm of PyTorch's CUDACachingAllocator, the
 * allocator the paper instruments: 512-byte size rounding, split
 * small/large pools with 2 MB / 20 MB segment granularity, best-fit
 * reuse of cached free blocks, block splitting with adjacent-free
 * merging, cache release on device OOM, and explicit empty_cache().
 */
#pragma once

#include <cstddef>
#include <deque>
#include <map>
#include <vector>

#include "alloc/allocator.h"
#include "alloc/device_memory.h"
#include "core/types.h"
#include "sim/clock.h"
#include "sim/cost_model.h"

namespace pinpoint {
namespace alloc {

/**
 * Caching allocator. Allocation requests are rounded and served from
 * per-pool best-fit free lists; only misses touch the (slow) device
 * layer, which is how the paper's traces show microsecond-scale
 * malloc behaviors in steady state.
 */
class CachingAllocator : public Allocator
{
  public:
    /** Smallest block granularity; all sizes round to multiples. */
    static constexpr std::size_t kMinBlockSize = 512;
    /** Requests at or below this size use the small pool. */
    static constexpr std::size_t kSmallSize = 1024 * 1024;
    /** Segment size backing small-pool allocations. */
    static constexpr std::size_t kSmallBuffer = 2 * 1024 * 1024;
    /** Segment size backing mid-sized large-pool allocations. */
    static constexpr std::size_t kLargeBuffer = 20 * 1024 * 1024;
    /** Requests at or above this size get exact-ish segments. */
    static constexpr std::size_t kMinLargeAlloc = 10 * 1024 * 1024;
    /** Rounding granularity for huge segments. */
    static constexpr std::size_t kRoundLarge = 2 * 1024 * 1024;

    /**
     * @param device backing simulated device address space.
     * @param clock simulated clock advanced by each operation's cost.
     * @param cost cost model for driver-call durations.
     */
    CachingAllocator(DeviceMemory &device, sim::VirtualClock &clock,
                     const sim::CostModel &cost);
    ~CachingAllocator() override;

    CachingAllocator(const CachingAllocator &) = delete;
    CachingAllocator &operator=(const CachingAllocator &) = delete;

    Block allocate(std::size_t bytes) override;
    void deallocate(BlockId id) override;
    const AllocatorStats &stats() const override { return stats_; }
    std::string name() const override { return "caching"; }
    std::size_t live_blocks() const override
    {
        return stats_.alloc_count - stats_.free_count;
    }

    /** Releases every completely-free cached segment to the device. */
    void empty_cache() override;

    /** @return rounded block size for a request of @p bytes. */
    static std::size_t round_size(std::size_t bytes);

    /** @return device segment size used to back a block of @p size. */
    static std::size_t allocation_size(std::size_t size);

    /**
     * Validates internal invariants (segment coverage, link
     * symmetry, pool membership, live-table consistency, stat
     * consistency). Used by the property-based tests; aborts on
     * violation.
     */
    void check_invariants() const;

  private:
    struct Node {
        DevPtr ptr = kNullDevPtr;
        std::size_t size = 0;
        bool allocated = false;
        bool is_small_pool = false;
        Node *prev = nullptr;  ///< address-adjacent neighbor, same segment
        Node *next = nullptr;
        DevPtr segment_base = kNullDevPtr;
        std::size_t segment_size = 0;
    };

    /**
     * A free node's pool entry. Its key is kept inline, so a search
     * compares entries of one array and dereferences no node.
     */
    struct PoolEntry {
        std::size_t size = 0;
        DevPtr ptr = kNullDevPtr;
        Node *node = nullptr;

        /** Best-fit order: smallest size, then lowest address. */
        bool
        operator<(const PoolEntry &o) const
        {
            return size != o.size ? size < o.size : ptr < o.ptr;
        }
    };

    /**
     * Free nodes sorted by (size, ptr). A pool holds tens to a few
     * hundred entries, so shifting on insert and erase costs less
     * than a tree's node per entry and pointer chase per compare.
     */
    using Pool = std::vector<PoolEntry>;

    /** Selects the pool for a rounded size. */
    Pool &pool_for(std::size_t rounded);

    /** Selects the pool a node belongs to. */
    Pool &pool_of(const Node &node);
    const Pool &pool_of(const Node &node) const;

    /** Best-fit lookup; removes and returns the node, or nullptr. */
    Node *take_free_node(Pool &pool, std::size_t rounded);

    /** Adds @p node to its pool. */
    void pool_insert(Node *node);

    /** Removes @p node from its pool. */
    void pool_erase(Node *node);

    /** @return whether @p node is in its pool. */
    bool pooled(const Node &node) const;

    /** @return a fresh node, recycled when one is spare. */
    Node *new_node();

    /** Returns @p node to the spare list. */
    void retire_node(Node *node);

    /** Allocates a fresh segment node from the device. */
    Node *allocate_segment(std::size_t rounded);

    /** Splits @p node if policy says the remainder is worth keeping. */
    void maybe_split(Node *node, std::size_t rounded);

    /** Frees all completely-free segments; @return bytes released. */
    std::size_t release_cached_segments();

    /** Merges @p node with a free address-adjacent @p neighbor. */
    Node *merge_with(Node *node, Node *neighbor);

    static bool should_split(const Node &node, std::size_t rounded);

    DeviceMemory &device_;
    sim::VirtualClock &clock_;
    const sim::CostModel &cost_;
    AllocatorStats stats_;

    Pool small_pool_;
    Pool large_pool_;
    /**
     * Owns every node, live or spare; a deque so node addresses stay
     * put as it grows. Split and merge recycle nodes through the
     * spare list, so a warm cache allocates nothing per allocate or
     * deallocate.
     */
    std::deque<Node> node_store_;
    std::vector<Node *> spare_nodes_;
    /** Segment head node by segment base (one entry per cudaMalloc). */
    std::map<DevPtr, Node *> segments_;
    /** Node of each block id (ids are dense); nullptr once freed. */
    std::vector<Node *> live_nodes_;

    /** Modeled cost of a cache-hit allocation (list manipulation). */
    static constexpr TimeNs kCacheHitCostNs = 800;
    /** Modeled cost of returning a block to the cache. */
    static constexpr TimeNs kCacheFreeCostNs = 400;
};

}  // namespace alloc
}  // namespace pinpoint

