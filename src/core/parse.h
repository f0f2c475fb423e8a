/**
 * @file
 * Strict text-to-number parsing. Unlike std::stoll and friends,
 * these helpers accept a token only when the *entire* token is a
 * number — "12abc" is rejected instead of silently parsing as 12 —
 * and report failure through the return value instead of throwing,
 * so callers can attach the flag or field name to the diagnostic.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace pinpoint {

// The integer parses take any contiguous text (a CSV field is a
// view into its line) and convert with std::from_chars: no leading
// space or '+', and no '-' for the unsigned one.

/** @return true and sets @p out when @p text is a whole int64. */
bool parse_int64(std::string_view text, std::int64_t &out);

/**
 * @return true and sets @p out when @p text is a whole uint64. "-1"
 * fails; it never wraps to 18446744073709551615.
 */
bool parse_uint64(std::string_view text, std::uint64_t &out);

/** @return true and sets @p out when @p text is a whole int. */
bool parse_int(std::string_view text, int &out);

/** @return true and sets @p out when @p text is a whole double. */
bool parse_double(const std::string &text, double &out);

/**
 * @return true when @p token has the "--name" flag shape. The one
 * definition of flag-ness shared by every strict argument walk
 * (cli::parse_args and api::WorkloadSpec::from_args), so the two
 * can never disagree on edge tokens: "--" alone and "-5" are
 * values, "--x" is a flag.
 */
bool is_flag_token(const std::string &token);

// Flag-value parses with the shared diagnostic wording. One error
// surface for every layer that converts a flag's text (cli flag
// getters, api::WorkloadSpec): "--<flag> needs an integer/a
// number, got '<text>'". @throws UsageError on malformed text.

/** @return @p text as a whole int64 for flag @p flag. */
std::int64_t parse_int64_flag(const std::string &flag,
                              const std::string &text);

/** @return @p text as a whole int for flag @p flag. */
int parse_int_flag(const std::string &flag, const std::string &text);

/** @return @p text as a whole double for flag @p flag. */
double parse_double_flag(const std::string &flag,
                         const std::string &text);

/** Callbacks of one strict "--flag [value]" token walk. */
struct FlagWalkHandler {
    /**
     * Decides whether flag @p name consumes a value token. Throw
     * UsageError here to reject an unknown flag with a
     * caller-specific message.
     */
    std::function<bool(const std::string &name)> takes_value;
    /** Called for a bare (boolean) flag. */
    std::function<void(const std::string &name)> on_switch;
    /** Called for a flag with its value. */
    std::function<void(const std::string &name,
                       const std::string &value)>
        on_value;
};

/**
 * The one strict flag-token walk, shared by cli::parse_args and
 * api::WorkloadSpec::from_args so their syntax rules cannot drift:
 * every token must be a flag (is_flag_token), and a value flag
 * must be followed by a non-flag token.
 *
 * @throws UsageError for positional tokens and dangling value
 * flags (plus whatever takes_value throws for unknown names).
 */
void walk_flag_tokens(const std::vector<std::string> &tokens,
                      const FlagWalkHandler &handler);

}  // namespace pinpoint

