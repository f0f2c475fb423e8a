/**
 * @file
 * Baseline allocator: one cudaMalloc/cudaFree per block, no caching.
 */
#pragma once

#include <vector>

#include "alloc/allocator.h"
#include "alloc/device_memory.h"
#include "alloc/live_ids.h"
#include "core/types.h"
#include "sim/clock.h"
#include "sim/cost_model.h"

namespace pinpoint {
namespace alloc {

/**
 * The naive strategy frameworks used before caching allocators: every
 * tensor allocation is a driver call. Serves as the ablation baseline
 * (bench E9): it maximizes driver traffic and allocation latency and
 * exposes raw device-heap fragmentation.
 */
class DirectAllocator : public Allocator
{
  public:
    /**
     * @param device backing address space (shared with other allocators
     *        in ablation setups).
     * @param clock simulated clock advanced by driver-call costs.
     * @param cost cost model supplying those costs.
     */
    DirectAllocator(DeviceMemory &device, sim::VirtualClock &clock,
                    const sim::CostModel &cost);

    Block allocate(std::size_t bytes) override;
    void deallocate(BlockId id) override;
    const AllocatorStats &stats() const override { return stats_; }
    std::string name() const override { return "direct"; }
    std::size_t live_blocks() const override
    {
        return stats_.alloc_count - stats_.free_count;
    }

    /** Appends the device's state and each live block's id. */
    void append_state_key(StateKey &key) const override;
    void fast_forward(const AllocatorStats &from,
                      const AllocatorStats &to) override;

  private:
    /** One block's reservation. */
    struct Entry {
        DevPtr ptr = kNullDevPtr;
        std::size_t size = 0;
        /** Slot in live_ while the block is live. */
        std::uint32_t slot = LiveIds::kNoSlot;
    };

    DeviceMemory &device_;
    sim::VirtualClock &clock_;
    const sim::CostModel &cost_;
    AllocatorStats stats_;
    /** Every block by id (ids are dense). */
    std::vector<Entry> blocks_;
    LiveIds live_;
};

}  // namespace alloc
}  // namespace pinpoint

