/**
 * @file
 * Transparent-huge-page hints for the per-event and per-block
 * arrays. A trace of a million events fills tens of megabytes of
 * fresh memory; faulting it in 4 KiB pages costs more kernel time
 * than recording the events. Where the kernel's transparent huge
 * pages are in `madvise` mode (or `always`), advising a buffer
 * before its first write lets those faults map 2 MiB pages instead.
 * The hint changes no value and is dropped where it does not apply.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pinpoint {

/** Size and alignment of one transparent huge page on 4 KiB-page hosts. */
inline constexpr std::size_t kHugePageBytes = std::size_t(2) << 20;

/** A byte range of the address space. */
struct AddressRange {
    std::uintptr_t begin = 0;
    std::size_t bytes = 0;
};

/**
 * @return the whole huge pages inside [@p begin, @p begin + @p bytes):
 * @p begin rounded up and the end rounded down to kHugePageBytes,
 * or an empty range when no whole huge page fits.
 */
constexpr AddressRange
huge_page_range(std::uintptr_t begin, std::size_t bytes)
{
    const std::uintptr_t first =
        (begin + kHugePageBytes - 1) & ~std::uintptr_t(kHugePageBytes - 1);
    const std::uintptr_t last =
        (begin + bytes) & ~std::uintptr_t(kHugePageBytes - 1);
    if (bytes < kHugePageBytes || last <= first)
        return {};
    return {first, static_cast<std::size_t>(last - first)};
}

/**
 * Asks the kernel to back the huge pages inside [@p data, @p data +
 * @p bytes) with transparent huge pages. A no-op off Linux, for
 * ranges holding no whole huge page, and when the kernel refuses.
 */
void advise_huge_pages(const void *data, std::size_t bytes);

/**
 * Reserves room for @p n elements in @p vec and advises the
 * buffer's huge pages, before anything is written to them.
 */
template <typename T>
void
reserve_huge(std::vector<T> &vec, std::size_t n)
{
    vec.reserve(n);
    advise_huge_pages(vec.data(), vec.capacity() * sizeof(T));
}

}  // namespace pinpoint
