/**
 * @file
 * Strict command-line flag parsing for the pinpoint CLI. Every
 * command declares the flags it accepts as FlagSpec values;
 * parse_args() validates the raw tokens against that declaration
 * and rejects — with an actionable UsageError, mapped to exit
 * code 2 — exactly the inputs the old ad-hoc cursor silently
 * mis-handled:
 *
 *   - unknown flags (previously ignored, so typos ran the default),
 *   - a value flag as the final token (previously fell back to the
 *     default),
 *   - non-numeric values for numeric flags (previously surfaced as
 *     a raw std::invalid_argument from std::stoll).
 */
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace pinpoint {
namespace cli {

/** How a flag consumes tokens. */
enum class FlagKind : std::uint8_t {
    kValue,  ///< --flag VALUE
    kBool,   ///< bare --flag toggle
};

/** Declaration of one accepted flag. */
struct FlagSpec {
    /** Canonical name without dashes, e.g. "batch". */
    std::string name;
    FlagKind kind = FlagKind::kValue;
    /** Placeholder in help text, e.g. "N", "PATH". */
    std::string value_name;
    /** Default rendered in help; "" = none (off / unset). */
    std::string default_text;
    /** One-line description for help and the generated docs. */
    std::string help;
};

/**
 * Validated flag values keyed by canonical name. Numeric getters
 * re-check the token in full — "--batch 12abc" is a UsageError,
 * never a silent 12.
 */
class ParsedArgs
{
  public:
    /** @return true when the value flag @p name was given. */
    bool has(const std::string &name) const;

    /** @return true when the bool flag @p name was given. */
    bool flag(const std::string &name) const;

    /** @return raw text of @p name, or @p fallback when absent. */
    std::string value(const std::string &name,
                      const std::string &fallback) const;

    /** @return raw text of @p name, or nullptr when absent. */
    const std::string *raw(const std::string &name) const;

    /** @return @p name as int64. @throws UsageError on bad text. */
    std::int64_t int64_value(const std::string &name,
                             std::int64_t fallback) const;

    /** @return @p name as int. @throws UsageError on bad text. */
    int int_value(const std::string &name, int fallback) const;

    /** @return @p name as double. @throws UsageError on bad text. */
    double double_value(const std::string &name,
                        double fallback) const;

  private:
    friend ParsedArgs parse_args(const std::vector<FlagSpec> &,
                                 const std::vector<std::string> &);

    std::map<std::string, std::string> values_;
    std::set<std::string> switches_;
};

/**
 * Parses @p tokens against @p specs. A repeated flag keeps the last
 * value.
 *
 * @throws UsageError for an unknown flag, a positional token, or a
 * value flag with no following value (end of line or another flag).
 */
ParsedArgs parse_args(const std::vector<FlagSpec> &specs,
                      const std::vector<std::string> &tokens);

}  // namespace cli
}  // namespace pinpoint

