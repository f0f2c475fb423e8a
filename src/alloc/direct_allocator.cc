#include "alloc/allocator.h"
#include "alloc/device_memory.h"
#include "alloc/direct_allocator.h"
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
    blocks_.push_back(b);

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
    PP_CHECK(id < blocks_.size() && blocks_[id].id == id,
             "deallocate of unknown block " << id);
    Block &b = blocks_[id];
    clock_.advance(cost_.cuda_free_time());
    device_.free(b.ptr);
    stats_.allocated_bytes -= b.size;
    stats_.reserved_bytes -= b.size;
    ++stats_.free_count;
    ++stats_.device_free_count;
    b.id = kInvalidBlock;
}

}  // namespace alloc
}  // namespace pinpoint
