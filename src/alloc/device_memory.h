/**
 * @file
 * Simulated device address space: the `cudaMalloc`/`cudaFree` layer.
 */
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/check.h"
#include "core/flat_table.h"
#include "core/types.h"

namespace pinpoint {
namespace alloc {

/** Thrown when a device (segment) allocation cannot be satisfied. */
class DeviceOomError : public Error
{
  public:
    DeviceOomError(const std::string &what, std::size_t requested,
                   std::size_t free_bytes, std::size_t largest_region)
        : Error(what), requested(requested), free_bytes(free_bytes),
          largest_region(largest_region)
    {}

    /** Bytes the failing call asked for. */
    std::size_t requested;
    /** Total free bytes at failure time. */
    std::size_t free_bytes;
    /** Largest contiguous free region at failure time. */
    std::size_t largest_region;
};

/**
 * First-fit allocator over a contiguous simulated device address
 * range, standing in for the CUDA driver's memory manager. The
 * caching allocator obtains whole segments from it; the direct
 * (baseline) allocator calls it once per tensor.
 *
 * All returned pointers are aligned to kSegmentAlignment, matching
 * cudaMalloc's 512-byte guarantee that the PyTorch allocator relies
 * on.
 */
class DeviceMemory
{
  public:
    /** Alignment of every returned pointer (cudaMalloc guarantee). */
    static constexpr std::size_t kSegmentAlignment = 512;

    /** Constructs an address space of @p capacity bytes. */
    explicit DeviceMemory(std::size_t capacity);

    /**
     * Reserves @p bytes (rounded up to the alignment).
     * @return the base device pointer of the reservation.
     * @throws DeviceOomError when no contiguous region fits.
     */
    DevPtr allocate(std::size_t bytes);

    /**
     * Releases a reservation previously returned by allocate().
     * @throws Error if @p ptr is not a live reservation base.
     */
    void free(DevPtr ptr);

    /** @return total capacity in bytes. */
    std::size_t capacity() const { return capacity_; }

    /** @return bytes currently reserved. */
    std::size_t reserved_bytes() const { return reserved_; }

    /** @return high-water mark of reserved bytes. */
    std::size_t peak_reserved_bytes() const { return peak_reserved_; }

    /** @return total free bytes (capacity - reserved). */
    std::size_t free_bytes() const { return capacity_ - reserved_; }

    /** @return size of the largest contiguous free region. */
    std::size_t largest_free_region() const;

    /**
     * External fragmentation in [0, 1]: 1 - largest_free_region /
     * free_bytes. Zero when memory is empty or free space is one
     * region.
     */
    double external_fragmentation() const;

    /** @return size of the live reservation based at @p ptr. */
    std::size_t reservation_size(DevPtr ptr) const;

    /** Base address of the simulated heap (for display/tests). */
    static constexpr DevPtr kBaseAddress = 0x7f00'0000'0000ull;

  private:
    std::size_t capacity_;
    std::size_t reserved_ = 0;
    std::size_t peak_reserved_ = 0;
    /** A free address range. */
    struct Region {
        DevPtr ptr = kNullDevPtr;
        std::size_t size = 0;
    };

    /**
     * Free regions in address order, coalesced (no two adjacent).
     * First fit scans them in order, so an array is what the scan
     * wants, and a split or merge edits an entry in place.
     */
    std::vector<Region> free_regions_;
    /** Live reservations keyed by base address → size. */
    FlatTable<DevPtr, std::size_t> live_;
};

}  // namespace alloc
}  // namespace pinpoint

