#include "core/huge_pages.h"

#include <cstdint>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace pinpoint {

void
advise_huge_pages(const void *data, std::size_t bytes)
{
    const AddressRange range =
        huge_page_range(reinterpret_cast<std::uintptr_t>(data), bytes);
    if (range.bytes == 0)
        return;
#if defined(__linux__) && defined(MADV_HUGEPAGE)
    // A refusal (no THP support, THP disabled) leaves the range as
    // it was: the hint is only ever a hint, so its result is unused.
    (void)madvise(reinterpret_cast<void *>(range.begin), range.bytes,
                  MADV_HUGEPAGE);
#endif
}

}  // namespace pinpoint
