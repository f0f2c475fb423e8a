#include "core/format.h"
#include "core/types.h"

#include <charconv>
#include <cstdio>

namespace pinpoint {

std::string
format_bytes(std::size_t bytes)
{
    char buf[64];
    const double b = static_cast<double>(bytes);
    if (bytes < 1024) {
        std::snprintf(buf, sizeof(buf), "%zu B", bytes);
    } else if (bytes < 1024ull * 1024) {
        std::snprintf(buf, sizeof(buf), "%.1f KB", b / 1024.0);
    } else if (bytes < 1024ull * 1024 * 1024) {
        std::snprintf(buf, sizeof(buf), "%.1f MB", b / (1024.0 * 1024.0));
    } else {
        std::snprintf(buf, sizeof(buf), "%.2f GB",
                      b / (1024.0 * 1024.0 * 1024.0));
    }
    return buf;
}

std::string
format_time(TimeNs t)
{
    char buf[64];
    if (t < 10 * kNsPerUs) {
        std::snprintf(buf, sizeof(buf), "%.2f us",
                      static_cast<double>(t) / kNsPerUs);
    } else if (t < kNsPerMs) {
        std::snprintf(buf, sizeof(buf), "%.1f us",
                      static_cast<double>(t) / kNsPerUs);
    } else if (t < kNsPerSec) {
        std::snprintf(buf, sizeof(buf), "%.1f ms",
                      static_cast<double>(t) / kNsPerMs);
    } else {
        std::snprintf(buf, sizeof(buf), "%.3f s",
                      static_cast<double>(t) / kNsPerSec);
    }
    return buf;
}

double
to_us(TimeNs t)
{
    return static_cast<double>(t) / static_cast<double>(kNsPerUs);
}

std::string
format_percent(double fraction)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f%%", fraction * 100.0);
    return buf;
}

std::string
format_fixed6(double value)
{
    // to_chars prints the same bytes as "%.6f" in the C locale, at a
    // fraction of snprintf's cost; the buffer fits DBL_MAX.
    char buf[330];
    return std::string(
        buf, std::to_chars(buf, buf + sizeof buf, value,
                           std::chars_format::fixed, 6)
                 .ptr);
}

std::string
pad(const std::string &value, std::size_t width)
{
    if (value.size() >= width)
        return value;
    return value + std::string(width - value.size(), ' ');
}

std::string
join_names(const std::vector<std::string> &names)
{
    std::string out;
    for (const auto &name : names) {
        if (!out.empty())
            out += ", ";
        out += name;
    }
    return out;
}

}  // namespace pinpoint
