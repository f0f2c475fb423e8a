/**
 * @file
 * Transparent-huge-page hints for the per-event and per-block
 * arrays. A trace of a million events fills tens of megabytes of
 * fresh memory; faulting it in 4 KiB pages costs more kernel time
 * than recording the events. Where the kernel's transparent huge
 * pages are in `madvise` mode (or `always`), advising a buffer
 * before its first write lets those faults map 2 MiB pages instead.
 * The hint changes no value and is dropped where it does not apply.
 *
 * The other direction: a buffer whose bytes in some range are stale
 * can hand those pages back (discard_pages), so that they cost no
 * memory until written again.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pinpoint {

/** Size and alignment of one transparent huge page on 4 KiB-page hosts. */
inline constexpr std::size_t kHugePageBytes = std::size_t(2) << 20;

/** Size and alignment of one base page on those hosts. */
inline constexpr std::size_t kPageBytes = 4096;

/** A byte range of the address space. */
struct AddressRange {
    std::uintptr_t begin = 0;
    std::size_t bytes = 0;
};

/**
 * @return the whole pages of @p page bytes (a power of two) inside
 * [@p begin, @p begin + @p bytes): @p begin rounded up and the end
 * rounded down to @p page, or an empty range when no whole page fits.
 */
constexpr AddressRange
whole_pages(std::uintptr_t begin, std::size_t bytes, std::size_t page)
{
    const std::uintptr_t first =
        (begin + page - 1) & ~std::uintptr_t(page - 1);
    const std::uintptr_t last = (begin + bytes) & ~std::uintptr_t(page - 1);
    if (bytes < page || last <= first)
        return {};
    return {first, static_cast<std::size_t>(last - first)};
}

/** @return the whole huge pages inside [@p begin, @p begin + @p bytes). */
constexpr AddressRange
huge_page_range(std::uintptr_t begin, std::size_t bytes)
{
    return whole_pages(begin, bytes, kHugePageBytes);
}

/**
 * Asks the kernel to back the huge pages inside [@p data, @p data +
 * @p bytes) with transparent huge pages. A no-op off Linux, for
 * ranges holding no whole huge page, and when the kernel refuses.
 */
void advise_huge_pages(const void *data, std::size_t bytes);

/**
 * Hands the whole kPageBytes pages inside [@p data, @p data +
 * @p bytes) back to the kernel: they take no memory until written
 * again, and read as zero on Linux. Only for bytes the caller no
 * longer needs; a no-op off Linux, where they keep their values.
 */
void discard_pages(void *data, std::size_t bytes);

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
