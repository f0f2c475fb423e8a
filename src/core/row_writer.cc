#include "core/row_writer.h"

#include <algorithm>
#include <ostream>

namespace pinpoint {
namespace {

/** Buffer size: one stream write per this many bytes of rows. */
constexpr std::size_t kChunkBytes = 1 << 16;

/**
 * Longest "%.6f" (and so "%.3f") rendering of a double: DBL_MAX has
 * 309 digits.
 */
constexpr std::size_t kMaxFixed6 = 330;

}  // namespace

RowWriter::RowWriter(std::ostream &os) : os_(os), buf_(kChunkBytes)
{
    pos_ = buf_.data();
    end_ = buf_.data() + buf_.size();
}

RowWriter &
RowWriter::operator<<(Fixed6 v)
{
    room(kMaxFixed6);
    pos_ = std::to_chars(pos_, end_, v.value, std::chars_format::fixed, 6)
               .ptr;
    return *this;
}

RowWriter &
RowWriter::operator<<(Fixed3 v)
{
    room(kMaxFixed6);
    pos_ = std::to_chars(pos_, end_, v.value, std::chars_format::fixed, 3)
               .ptr;
    return *this;
}

RowWriter &
RowWriter::long_text(std::string_view s)
{
    flush();
    if (s.size() > buf_.size()) {
        os_.write(s.data(), static_cast<std::streamsize>(s.size()));
        return *this;
    }
    pos_ = std::copy(s.begin(), s.end(), pos_);
    return *this;
}

void
RowWriter::make_room(std::size_t bytes)
{
    flush();
    if (bytes > buf_.size()) {
        buf_.resize(bytes);
        pos_ = buf_.data();
        end_ = buf_.data() + buf_.size();
    }
}

void
RowWriter::flush()
{
    os_.write(buf_.data(), pos_ - buf_.data());
    pos_ = buf_.data();
}

}  // namespace pinpoint
