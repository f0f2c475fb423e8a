/**
 * @file
 * Binary buddy allocator over a single device arena.
 *
 * A third design point for the allocator ablation (E9): constant-time
 * coalescing and no external fragmentation inside the arena, bought
 * with power-of-two internal fragmentation — the opposite trade from
 * the PyTorch caching allocator. Modeled after classic kernel buddy
 * systems.
 */
#pragma once

#include <cstddef>
#include <vector>

#include "alloc/allocator.h"
#include "alloc/device_memory.h"
#include "core/types.h"
#include "sim/clock.h"
#include "sim/cost_model.h"

namespace pinpoint {
namespace alloc {

/**
 * Buddy allocator. Reserves one power-of-two arena from the device
 * at construction; every block is a power-of-two subdivision of it.
 */
class BuddyAllocator : public Allocator
{
  public:
    /** Smallest block size handed out (2^9 = 512, cudaMalloc align). */
    static constexpr std::size_t kMinOrder = 9;

    /**
     * @param device backing address space (arena reserved here).
     * @param clock simulated clock advanced by operation costs.
     * @param cost cost model for the arena's one-time cudaMalloc.
     * @param arena_bytes arena size; rounded up to a power of two.
     * @throws DeviceOomError when the arena does not fit the device.
     */
    BuddyAllocator(DeviceMemory &device, sim::VirtualClock &clock,
                   const sim::CostModel &cost,
                   std::size_t arena_bytes);
    ~BuddyAllocator() override;

    BuddyAllocator(const BuddyAllocator &) = delete;
    BuddyAllocator &operator=(const BuddyAllocator &) = delete;

    Block allocate(std::size_t bytes) override;
    void deallocate(BlockId id) override;
    const AllocatorStats &stats() const override { return stats_; }
    std::string name() const override { return "buddy"; }
    std::size_t live_blocks() const override
    {
        return stats_.alloc_count - stats_.free_count;
    }

    /** @return the arena size in bytes. */
    std::size_t arena_bytes() const { return arena_size_; }

    /** @return rounded (power-of-two) size for a request. */
    static std::size_t round_pow2(std::size_t bytes);

    /**
     * Validates free-list consistency and no-overlap invariants;
     * aborts on violation (property tests).
     */
    void check_invariants() const;

  private:
    /** Order of the smallest power-of-two block >= bytes. */
    static int order_of(std::size_t bytes);

    /** @return size of the largest free block (0 when none). */
    std::size_t largest_free_block() const;

    DeviceMemory &device_;
    sim::VirtualClock &clock_;
    const sim::CostModel &cost_;
    AllocatorStats stats_;

    DevPtr arena_base_ = kNullDevPtr;
    std::size_t arena_size_ = 0;
    int max_order_ = 0;

    /**
     * Free block offsets per order, each list in descending order,
     * so the lowest offset, the one allocate() takes, is its back.
     */
    std::vector<std::vector<std::size_t>> free_lists_;
    /** Arena placement of one block; order < 0 once freed. */
    struct Placement {
        std::size_t offset = 0;
        int order = -1;
    };
    /** Placement of every block by id (ids are dense). */
    std::vector<Placement> blocks_;

    static constexpr TimeNs kOpCostNs = 300;
};

}  // namespace alloc
}  // namespace pinpoint

