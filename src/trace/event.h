/**
 * @file
 * The memory behavior record: one malloc/free/read/write observation.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "core/types.h"

namespace pinpoint {
namespace trace {

/** Iteration tag used for one-time setup events in traces. */
inline constexpr std::uint32_t kSetupIteration = 0xffffffffu;

/**
 * An op name interned in a TraceRecorder's name table. Id 0 is the
 * empty name in every recorder, so a default event is always valid.
 */
using OpId = std::uint32_t;

/** The four memory behaviors the paper instruments (Sec. II). */
enum class EventKind : std::uint8_t {
    kMalloc = 0,
    kFree = 1,
    kRead = 2,
    kWrite = 3,
};

/** Number of EventKind enumerators. */
inline constexpr int kNumEventKinds = 4;

/** @return canonical lowercase name ("malloc", ...). */
const char *event_kind_name(EventKind k);

/**
 * One instrumented memory behavior of one device memory block. This
 * is the record the paper's modified PyTorch allocators emit; all of
 * Figs. 2-7 are computed from sequences of these.
 */
struct MemoryEvent {
    /** Simulated timestamp of the behavior. */
    TimeNs time = 0;
    /** Behavior kind. */
    EventKind kind = EventKind::kMalloc;
    /** Logical block the behavior touched. */
    BlockId block = kInvalidBlock;
    /** Device address of the block. */
    DevPtr ptr = kNullDevPtr;
    /** Size of the block in bytes. */
    std::size_t size = 0;
    /** Tensor occupying the block (kInvalidTensor if none). */
    TensorId tensor = kInvalidTensor;
    /** Storage-content category of that tensor. */
    Category category = Category::kIntermediate;
    /** Training iteration index the behavior belongs to. */
    std::uint32_t iteration = 0;
    /** Index of the op that issued the access (-1 for allocator). */
    std::int32_t op_index = -1;
    /**
     * The op's name (e.g. "fc1.forward") in the recording
     * TraceRecorder's name table; 0 (empty) for none.
     */
    OpId op = 0;
};

// Events are recorded, frozen and exported by the hundred thousand:
// a plain struct keeps each of those a copy, never a heap allocation.
static_assert(std::is_trivially_copyable_v<MemoryEvent>,
              "MemoryEvent must stay a plain record");

}  // namespace trace
}  // namespace pinpoint

