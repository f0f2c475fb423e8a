/**
 * @file
 * Buffered row writer of the deterministic text exports (trace CSV,
 * Chrome trace, swap and relief schedules): numbers are formatted
 * straight into one buffer (integers by format_decimal, doubles by
 * std::to_chars), and the buffer reaches the stream in large chunks,
 * not one stream insertion per field.
 */
#pragma once

#include <algorithm>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <string_view>
#include <type_traits>
#include <vector>

namespace pinpoint {

namespace detail {

/** "00" to "99": the two digits of each value below 100. */
inline constexpr char kDigitPairs[] =
    "00010203040506070809101112131415161718192021222324252627282930313233"
    "34353637383940414243444546474849505152535455565758596061626364656667"
    "6869707172737475767778798081828384858687888990919293949596979899";

/** Writes the two digits of @p v < 100 at @p out. */
inline void
put_pair(char *out, std::uint32_t v)
{
    std::memcpy(out, kDigitPairs + 2 * v, 2);
}

/** Writes @p v < 10^8 as exactly 8 digits at @p out. */
inline void
put_eight(char *out, std::uint32_t v)
{
    const std::uint32_t high = v / 10000;
    const std::uint32_t low = v % 10000;
    put_pair(out, high / 100);
    put_pair(out + 2, high % 100);
    put_pair(out + 4, low / 100);
    put_pair(out + 6, low % 100);
}

/** Writes @p v < 10^8 with no leading zeros; @return the end. */
inline char *
put_short(char *out, std::uint32_t v)
{
    const int digits = v < 10         ? 1
                       : v < 100      ? 2
                       : v < 1000     ? 3
                       : v < 10000    ? 4
                       : v < 100000   ? 5
                       : v < 1000000  ? 6
                       : v < 10000000 ? 7
                                      : 8;
    char *end = out + digits;
    char *at = end;
    while (v >= 100) {
        at -= 2;
        put_pair(at, v % 100);
        v /= 100;
    }
    if (v >= 10) {
        at -= 2;
        put_pair(at, v);
    } else {
        *--at = static_cast<char>('0' + v);
    }
    return end;
}

}  // namespace detail

/**
 * Writes @p value in decimal at @p out, the bytes std::to_chars
 * writes, eight digits at a time from a table of digit pairs.
 * @return the end of the digits; at most 20 digits and a sign.
 */
template <typename T>
char *
format_decimal(char *out, T value)
{
    static_assert(std::is_integral_v<T> && sizeof(T) <= 8);
    std::uint64_t v = static_cast<std::uint64_t>(value);
    if constexpr (std::is_signed_v<T>) {
        if (value < 0) {
            *out++ = '-';
            v = 0 - v;
        }
    }
    constexpr std::uint64_t kEight = 100000000;
    if (v < kEight)
        return detail::put_short(out, static_cast<std::uint32_t>(v));
    const std::uint64_t high = v / kEight;
    const auto low = static_cast<std::uint32_t>(v % kEight);
    if (high < kEight) {
        out = detail::put_short(out, static_cast<std::uint32_t>(high));
    } else {
        out = detail::put_short(out,
                                static_cast<std::uint32_t>(high / kEight));
        detail::put_eight(out, static_cast<std::uint32_t>(high % kEight));
        out += 8;
    }
    detail::put_eight(out, low);
    return out + 8;
}

/** A double RowWriter prints as format_fixed6 does ("%.6f"). */
struct Fixed6 {
    double value;
};

/** A double RowWriter prints as "%.3f" does. */
struct Fixed3 {
    double value;
};

/**
 * Appends fields to a chunk buffer with `<<` and writes the buffer
 * to a stream when full. Integers print in decimal, characters and
 * text verbatim, and a double only through Fixed6 or Fixed3, so no
 * field can pick up stream formatting state. Every `<<` makes its
 * own room first, so a field of any length is written whole; a row
 * from begin_row() makes room once for all its fields. Call flush()
 * after the last row: bytes still buffered at destruction are
 * dropped.
 */
class RowWriter
{
  public:
    explicit RowWriter(std::ostream &os);

    /** Most bytes an integer field takes: 20 digits and a sign. */
    static constexpr std::size_t kMaxInteger = 21;

    template <typename T>
    std::enable_if_t<std::is_integral_v<T>, RowWriter &>
    operator<<(T value)
    {
        room(kMaxInteger);
        pos_ = format_decimal(pos_, value);
        return *this;
    }

    RowWriter &
    operator<<(char c)
    {
        room(1);
        *pos_++ = c;
        return *this;
    }

    RowWriter &
    operator<<(std::string_view s)
    {
        if (s.size() > static_cast<std::size_t>(end_ - pos_))
            return long_text(s);
        pos_ = std::copy(s.begin(), s.end(), pos_);
        return *this;
    }

    RowWriter &operator<<(Fixed6 v);
    RowWriter &operator<<(Fixed3 v);

    /** Writes every buffered byte to the stream. */
    void flush();

    /**
     * Starts a row of at most @p bytes, for a writer of fields of
     * known bounds: it makes room once, writes the fields at the
     * returned pointer (format_decimal for integers) and hands the
     * end to end_row().
     */
    char *
    begin_row(std::size_t bytes)
    {
        room(bytes);
        return pos_;
    }

    /** Ends the row begin_row() started at @p end. */
    void end_row(char *end) { pos_ = end; }

  private:
    /**
     * Makes room for @p bytes after the buffered ones, flushing and,
     * past the buffer's size, growing it.
     */
    void
    room(std::size_t bytes)
    {
        if (static_cast<std::size_t>(end_ - pos_) < bytes)
            make_room(bytes);
    }

    /** room() when the bytes do not fit. */
    void make_room(std::size_t bytes);

    /** operator<< for text longer than the room left. */
    RowWriter &long_text(std::string_view s);

    std::ostream &os_;
    std::vector<char> buf_;
    char *pos_ = nullptr;
    char *end_ = nullptr;
};

}  // namespace pinpoint
