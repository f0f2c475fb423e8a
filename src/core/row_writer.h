/**
 * @file
 * Buffered row writer of the deterministic text exports (trace CSV,
 * Chrome trace, swap and relief schedules): numbers are formatted with
 * std::to_chars straight into one buffer, and the buffer reaches the
 * stream in large chunks, not one stream insertion per field.
 */
#pragma once

#include <algorithm>
#include <charconv>
#include <cstddef>
#include <iosfwd>
#include <string_view>
#include <type_traits>
#include <vector>

namespace pinpoint {

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
 * field can
 * pick up stream formatting state. Every append makes its own room
 * first, so a field of any length is written whole. Call flush()
 * after the last row: bytes still buffered at destruction are
 * dropped.
 */
class RowWriter
{
  public:
    explicit RowWriter(std::ostream &os);

    template <typename T>
    std::enable_if_t<std::is_integral_v<T>, RowWriter &>
    operator<<(T value)
    {
        // 20 digits and a sign fit every 64-bit integer.
        room(24);
        pos_ = std::to_chars(pos_, end_, value).ptr;
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

  private:
    /** Flushes unless @p bytes fit after the buffered ones. */
    void
    room(std::size_t bytes)
    {
        if (static_cast<std::size_t>(end_ - pos_) < bytes)
            flush();
    }

    /** operator<< for text longer than the room left. */
    RowWriter &long_text(std::string_view s);

    std::ostream &os_;
    std::vector<char> buf_;
    char *pos_ = nullptr;
    char *end_ = nullptr;
};

}  // namespace pinpoint
