#include "alloc/device_memory.h"
#include "core/check.h"
#include "core/types.h"

#include <algorithm>
#include <sstream>

namespace pinpoint {
namespace alloc {
namespace {

std::size_t
align_up(std::size_t n, std::size_t a)
{
    return (n + a - 1) / a * a;
}

}  // namespace

DeviceMemory::DeviceMemory(std::size_t capacity)
    : capacity_(align_up(capacity, kSegmentAlignment))
{
    PP_CHECK(capacity > 0, "device capacity must be positive");
    free_regions_.push_back({kBaseAddress, capacity_});
}

DevPtr
DeviceMemory::allocate(std::size_t bytes)
{
    PP_CHECK(bytes > 0, "cannot reserve zero bytes");
    const std::size_t size = align_up(bytes, kSegmentAlignment);

    // First fit in address order, like a simple driver heap.
    for (auto it = free_regions_.begin(); it != free_regions_.end(); ++it) {
        if (it->size < size)
            continue;
        const DevPtr ptr = it->ptr;
        if (it->size > size) {
            it->ptr += size;
            it->size -= size;
        } else {
            free_regions_.erase(it);
        }
        live_.try_emplace(ptr).first = size;
        reserved_ += size;
        peak_reserved_ = std::max(peak_reserved_, reserved_);
        return ptr;
    }

    std::ostringstream os;
    os << "device out of memory: requested " << size << " B, free "
       << free_bytes() << " B, largest contiguous region "
       << largest_free_region() << " B";
    throw DeviceOomError(os.str(), size, free_bytes(),
                         largest_free_region());
}

void
DeviceMemory::free(DevPtr ptr)
{
    const std::size_t *live = live_.find(ptr);
    PP_CHECK(live != nullptr,
             "free of unknown device pointer 0x" << std::hex << ptr);
    const std::size_t size = *live;
    live_.erase(ptr);
    reserved_ -= size;

    // Coalesce with the address-adjacent free neighbors, or insert.
    const auto next = std::lower_bound(
        free_regions_.begin(), free_regions_.end(), ptr,
        [](const Region &r, DevPtr p) { return r.ptr < p; });
    PP_ASSERT(next == free_regions_.end() || next->ptr > ptr,
              "double-free of device pointer");
    const bool joins_next =
        next != free_regions_.end() && ptr + size == next->ptr;
    if (next != free_regions_.begin()) {
        Region &prev = *std::prev(next);
        if (prev.ptr + prev.size == ptr) {
            prev.size += size;
            if (joins_next) {
                prev.size += next->size;
                free_regions_.erase(next);
            }
            return;
        }
    }
    if (joins_next) {
        next->ptr = ptr;
        next->size += size;
        return;
    }
    free_regions_.insert(next, Region{ptr, size});
}

std::size_t
DeviceMemory::largest_free_region() const
{
    std::size_t best = 0;
    for (const Region &r : free_regions_)
        best = std::max(best, r.size);
    return best;
}

double
DeviceMemory::external_fragmentation() const
{
    const std::size_t free = free_bytes();
    if (free == 0)
        return 0.0;
    return 1.0 - static_cast<double>(largest_free_region()) /
                     static_cast<double>(free);
}

std::size_t
DeviceMemory::reservation_size(DevPtr ptr) const
{
    const std::size_t *live = live_.find(ptr);
    PP_CHECK(live != nullptr,
             "unknown device pointer 0x" << std::hex << ptr);
    return *live;
}

}  // namespace alloc
}  // namespace pinpoint
