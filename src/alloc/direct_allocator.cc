#include "alloc/allocator.h"
#include "alloc/device_memory.h"
#include "alloc/direct_allocator.h"
#include "alloc/live_ids.h"
#include "core/check.h"
#include "core/types.h"
#include "sim/clock.h"
#include "sim/cost_model.h"

#include <algorithm>

namespace pinpoint {
namespace alloc {

DirectAllocator::DirectAllocator(DeviceMemory &device,
                                 sim::VirtualClock &clock,
                                 const sim::CostModel &cost)
    : device_(device), clock_(clock), cost_(cost)
{
}

Block
DirectAllocator::allocate(std::size_t bytes)
{
    PP_CHECK(bytes > 0, "cannot allocate zero bytes");
    clock_.advance(cost_.cuda_malloc_time());
    const DevPtr ptr = device_.allocate(bytes);
    Block b;
    b.id = blocks_.size();
    b.ptr = ptr;
    b.size = device_.reservation_size(ptr);
    b.requested = bytes;
    blocks_.push_back({b.ptr, b.size, live_.add(b.id)});

    ++stats_.alloc_count;
    ++stats_.device_alloc_count;
    stats_.allocated_bytes += b.size;
    stats_.reserved_bytes += b.size;
    stats_.peak_allocated_bytes =
        std::max(stats_.peak_allocated_bytes, stats_.allocated_bytes);
    stats_.peak_reserved_bytes =
        std::max(stats_.peak_reserved_bytes, stats_.reserved_bytes);
    return b;
}

void
DirectAllocator::deallocate(BlockId id)
{
    PP_CHECK(id < blocks_.size() && blocks_[id].slot != LiveIds::kNoSlot,
             "deallocate of unknown block " << id);
    Entry &b = blocks_[id];
    clock_.advance(cost_.cuda_free_time());
    device_.free(b.ptr);
    stats_.allocated_bytes -= b.size;
    stats_.reserved_bytes -= b.size;
    ++stats_.free_count;
    ++stats_.device_free_count;
    const BlockId moved = live_.remove(b.slot);
    if (moved != kInvalidBlock)
        blocks_[moved].slot = b.slot;
    b.slot = LiveIds::kNoSlot;
}

void
DirectAllocator::append_state_key(StateKey &key) const
{
    // The device holds each live block's ptr and size.
    device_.append_state_key(key);
    key.push_back(live_.ids().size());
    for (BlockId id : live_.ids()) {
        key.push_back(id);
        key.push_back(blocks_[id].ptr);
    }
}

void
DirectAllocator::fast_forward(const AllocatorStats &from,
                              const AllocatorStats &to)
{
    repeat_stats(stats_, from, to);
    blocks_.resize(stats_.alloc_count);
}

}  // namespace alloc
}  // namespace pinpoint
