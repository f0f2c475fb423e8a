/**
 * @file
 * Abstract device-memory allocator interface, the instrumentation
 * point of the paper: every block the training runtime touches is
 * handed out and reclaimed through this interface.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/types.h"

namespace pinpoint {
namespace alloc {

/**
 * A live logical device memory block. One Block corresponds to one
 * malloc..free lifetime — the unit the paper's Gantt chart (Fig. 2)
 * draws one rectangle for.
 */
struct Block {
    /**
     * Dense id: an allocator's n-th successful allocate() returns id
     * n - 1, so per-block state lives in vectors indexed by id. Never
     * reused across lifetimes.
     */
    BlockId id = kInvalidBlock;
    /** Base device address of the block. */
    DevPtr ptr = kNullDevPtr;
    /** Bytes actually reserved for the block (after rounding). */
    std::size_t size = 0;
    /** Bytes the caller asked for. */
    std::size_t requested = 0;
};

/** Counters every allocator maintains; mirrors torch.cuda.memory_stats. */
struct AllocatorStats {
    /** Bytes currently allocated to live blocks (post-rounding). */
    std::size_t allocated_bytes = 0;
    /** Bytes currently reserved from the device by this allocator. */
    std::size_t reserved_bytes = 0;
    /** High-water mark of allocated_bytes. */
    std::size_t peak_allocated_bytes = 0;
    /** High-water mark of reserved_bytes. */
    std::size_t peak_reserved_bytes = 0;
    /** Number of allocate() calls. */
    std::uint64_t alloc_count = 0;
    /** Number of deallocate() calls. */
    std::uint64_t free_count = 0;
    /** Number of device (cudaMalloc) segment allocations. */
    std::uint64_t device_alloc_count = 0;
    /** Number of device (cudaFree) segment releases. */
    std::uint64_t device_free_count = 0;
    /** allocate() calls served from the cache without cudaMalloc. */
    std::uint64_t cache_hit_count = 0;
    /** Block splits performed (caching allocator only). */
    std::uint64_t split_count = 0;
    /** Adjacent-free merges performed (caching allocator only). */
    std::uint64_t merge_count = 0;

    /**
     * Cache slack: reserved but not allocated bytes — the internal
     * fragmentation + cache headroom of the allocator.
     */
    std::size_t slack_bytes() const
    {
        return reserved_bytes >= allocated_bytes
                   ? reserved_bytes - allocated_bytes
                   : 0;
    }
};

/**
 * The state of an allocator as a sequence of values. Two states
 * whose keys are equal answer every later sequence of calls with the
 * same placements and clock costs; their block ids differ only by
 * the difference of their next ids.
 */
using StateKey = std::vector<std::uint64_t>;

/**
 * Adds to @p stats what one more run of a span of calls adds: a span
 * that took an allocator from @p from to @p to, replayed from a
 * state with the same key. Every counter advances by its difference.
 * @throws Error unless the span freed every block it allocated, ends
 * with the bytes allocated and reserved it began with, and @p stats
 * already holds the span's high-water marks, so a repeat moves none.
 */
void repeat_stats(AllocatorStats &stats, const AllocatorStats &from,
                  const AllocatorStats &to);

/**
 * Device memory allocator interface. Implementations advance the
 * simulated clock by the modeled cost of each operation so that
 * allocation behavior shows up in the timeline exactly like it does
 * under a profiler on real hardware.
 */
class Allocator
{
  public:
    virtual ~Allocator() = default;

    /**
     * Allocates a block of at least @p bytes.
     * @throws DeviceOomError when memory is exhausted.
     */
    virtual Block allocate(std::size_t bytes) = 0;

    /**
     * Returns block @p id to the allocator.
     * @throws Error if @p id is not a live block of this allocator.
     */
    virtual void deallocate(BlockId id) = 0;

    /** @return running counters. */
    virtual const AllocatorStats &stats() const = 0;

    /** @return short implementation name for reports. */
    virtual std::string name() const = 0;

    /** Releases cached device memory, if the implementation caches. */
    virtual void empty_cache() {}

    /** @return number of currently live blocks. */
    virtual std::size_t live_blocks() const = 0;

    /**
     * Appends every value that decides this allocator's future
     * placements and clock costs: its free space, its live blocks
     * with their ids, and its device's state. Equal keys before and
     * after a span of calls mean the span left the state as it found
     * it. The next block id and the counters stay out, and so does
     * the clock, which an allocator only advances and never reads.
     */
    virtual void append_state_key(StateKey &key) const = 0;

    /**
     * Skips a repeat of a span of calls this allocator already ran
     * from a state with the key it has now: a span that allocated
     * and freed `to.alloc_count - from.alloc_count` blocks and took
     * the stats from @p from to @p to. The ids advance past that many
     * dead blocks and the stats as repeat_stats() says. The rest of
     * the state stays, so the span must have ended with the key it
     * began with.
     */
    virtual void fast_forward(const AllocatorStats &from,
                              const AllocatorStats &to) = 0;
};

}  // namespace alloc
}  // namespace pinpoint

