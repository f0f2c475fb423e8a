/**
 * @file
 * The ids of an allocator's live blocks in one compact list, so a
 * state key walks the blocks that are live and not every id the
 * allocator ever handed out.
 */
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "core/check.h"
#include "core/types.h"

namespace pinpoint {
namespace alloc {

/**
 * Live block ids in an unordered array: an id joins at the back and
 * leaves by taking the last id into its slot. Each allocator keeps
 * the slot of a live block next to the block's placement.
 */
class LiveIds
{
  public:
    /** Slot of a block that is not live. */
    static constexpr std::uint32_t kNoSlot =
        std::numeric_limits<std::uint32_t>::max();

    /** Adds @p id; @return its slot. */
    std::uint32_t
    add(BlockId id)
    {
        PP_ASSERT(ids_.size() < kNoSlot, "too many live blocks");
        ids_.push_back(id);
        return static_cast<std::uint32_t>(ids_.size() - 1);
    }

    /**
     * Removes the id in @p slot.
     * @return the id moved into @p slot, whose slot the caller
     * updates, or kInvalidBlock when @p slot was the last.
     */
    BlockId
    remove(std::uint32_t slot)
    {
        const BlockId last = ids_.back();
        ids_.pop_back();
        if (slot == ids_.size())
            return kInvalidBlock;
        ids_[slot] = last;
        return last;
    }

    /** @return the live ids, in slot order. */
    const std::vector<BlockId> &ids() const { return ids_; }

  private:
    std::vector<BlockId> ids_;
};

}  // namespace alloc
}  // namespace pinpoint
