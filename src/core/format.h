/**
 * @file
 * Human-readable formatting helpers for bytes, times, and ratios,
 * used by benches, examples, and log output.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/types.h"

namespace pinpoint {

/** @return e.g. "1.17 GB", "640.0 MB", "512 B" (binary units). */
std::string format_bytes(std::size_t bytes);

/** @return e.g. "25.0 us", "840211 us" rendered as "840.2 ms". */
std::string format_time(TimeNs t);

/** @return @p t expressed in (possibly fractional) microseconds. */
double to_us(TimeNs t);

/** @return "42.3%" rendering of @p fraction (0.423). */
std::string format_percent(double fraction);

/**
 * @return locale-independent fixed-precision "%.6f" rendering —
 * the one double format the deterministic CSV/JSON exporters use.
 */
std::string format_fixed6(double value);

/**
 * @return @p value right-padded/truncated to @p width characters;
 * used by the fixed-width tables the benches print.
 */
std::string pad(const std::string &value, std::size_t width);

/**
 * @return @p names joined as "a, b, c" — the one renderer for the
 * "(known: ...)" lists in user-facing diagnostics.
 */
std::string join_names(const std::vector<std::string> &names);

}  // namespace pinpoint

