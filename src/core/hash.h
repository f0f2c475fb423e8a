/**
 * @file
 * FNV-1a 64-bit hashing. Used wherever the repo needs a stable,
 * platform-independent content key (sweep result-cache file names,
 * the result-schema salt, serving arrival seeds) — never for
 * security. The constants and byte order are fixed by the FNV spec,
 * so a key hashed today matches a key hashed by any future build.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace pinpoint {

/** FNV-1a 64-bit offset basis. */
constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ull;
/** FNV-1a 64-bit prime. */
constexpr std::uint64_t kFnv1aPrime = 0x100000001b3ull;
/**
 * Basis of runtime::arrival_seed(). Non-standard: it is the spec's
 * offset basis (kFnv1aOffset, 14695981039346656037) one digit short.
 * It is kept because it seeds every committed serving output; the
 * standard basis would replay different request streams.
 */
constexpr std::uint64_t kArrivalSeedBasis = 1469598103934665603ull;

/**
 * @return the FNV-1a 64-bit hash of @p text, folded onto @p seed.
 * Chain calls by passing a previous result as the seed to hash a
 * sequence of strings order-sensitively.
 */
inline std::uint64_t
fnv1a64(const std::string &text, std::uint64_t seed = kFnv1aOffset)
{
    std::uint64_t h = seed;
    for (unsigned char c : text) {
        h ^= static_cast<std::uint64_t>(c);
        h *= kFnv1aPrime;
    }
    return h;
}

/** @return @p value as 16 lowercase hex digits (zero-padded). */
inline std::string
to_hex16(std::uint64_t value)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[value & 0xf];
        value >>= 4;
    }
    return out;
}

}  // namespace pinpoint
