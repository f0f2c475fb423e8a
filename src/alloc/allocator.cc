#include "alloc/allocator.h"

#include "core/check.h"

namespace pinpoint {
namespace alloc {

void
repeat_stats(AllocatorStats &stats, const AllocatorStats &from,
             const AllocatorStats &to)
{
    PP_CHECK(to.alloc_count - from.alloc_count ==
                 to.free_count - from.free_count,
             "a repeated span must free every block it allocates");
    PP_CHECK(from.allocated_bytes == to.allocated_bytes &&
                 from.reserved_bytes == to.reserved_bytes &&
                 stats.allocated_bytes == from.allocated_bytes &&
                 stats.reserved_bytes == from.reserved_bytes,
             "a repeated span must end with the bytes it began with");
    // The span's trajectory peaked at or below `to`'s high-water
    // marks, and a repeat retraces it.
    PP_CHECK(stats.peak_allocated_bytes >= to.peak_allocated_bytes &&
                 stats.peak_reserved_bytes >= to.peak_reserved_bytes,
             "a repeated span must not move a high-water mark");
    stats.alloc_count += to.alloc_count - from.alloc_count;
    stats.free_count += to.free_count - from.free_count;
    stats.device_alloc_count +=
        to.device_alloc_count - from.device_alloc_count;
    stats.device_free_count +=
        to.device_free_count - from.device_free_count;
    stats.cache_hit_count += to.cache_hit_count - from.cache_hit_count;
    stats.split_count += to.split_count - from.split_count;
    stats.merge_count += to.merge_count - from.merge_count;
}

}  // namespace alloc
}  // namespace pinpoint
