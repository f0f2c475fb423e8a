#include "core/parse.h"

#include <cctype>
#include <charconv>
#include <cerrno>
#include <cstdlib>
#include <string_view>
#include <system_error>

#include "core/check.h"

namespace pinpoint {
namespace {

/**
 * The whole-token integer parse: std::from_chars skips no space and
 * takes no '+' (and no '-' for an unsigned T), and the token must
 * be in range and used up.
 */
template <typename T>
bool
parse_whole_integer(std::string_view text, T &out)
{
    T value = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end)
        return false;
    out = value;
    return true;
}

}  // namespace

bool
parse_int64(std::string_view text, std::int64_t &out)
{
    return parse_whole_integer(text, out);
}

bool
parse_uint64(std::string_view text, std::uint64_t &out)
{
    return parse_whole_integer(text, out);
}

bool
parse_int(std::string_view text, int &out)
{
    return parse_whole_integer(text, out);
}

bool
parse_double(const std::string &text, double &out)
{
    // strtod skips leading space and takes a '+' sign: both are
    // rejected up front, so " 5" and "+5" fail like "5 " does, as
    // they do for the integer parses.
    if (text.empty() ||
        std::isspace(static_cast<unsigned char>(text.front())) ||
        text.front() == '+')
        return false;
    errno = 0;
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (errno == ERANGE || end != text.c_str() + text.size())
        return false;
    out = value;
    return true;
}

bool
is_flag_token(const std::string &token)
{
    return token.size() > 2 && token.compare(0, 2, "--") == 0;
}

std::int64_t
parse_int64_flag(const std::string &flag, const std::string &text)
{
    std::int64_t value = 0;
    if (!parse_int64(text, value))
        throw UsageError("--" + flag + " needs an integer, got '" +
                         text + "'");
    return value;
}

int
parse_int_flag(const std::string &flag, const std::string &text)
{
    int value = 0;
    if (!parse_int(text, value))
        throw UsageError("--" + flag + " needs an integer, got '" +
                         text + "'");
    return value;
}

double
parse_double_flag(const std::string &flag, const std::string &text)
{
    double value = 0.0;
    if (!parse_double(text, value))
        throw UsageError("--" + flag + " needs a number, got '" +
                         text + "'");
    return value;
}

void
walk_flag_tokens(const std::vector<std::string> &tokens,
                 const FlagWalkHandler &handler)
{
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        const std::string &token = tokens[i];
        if (!is_flag_token(token))
            throw UsageError("unexpected argument '" + token +
                             "' (flags are spelled --name)");
        const std::string name = token.substr(2);
        if (!handler.takes_value(name)) {
            handler.on_switch(name);
            continue;
        }
        if (i + 1 >= tokens.size() || is_flag_token(tokens[i + 1]))
            throw UsageError("--" + name + " requires a value");
        handler.on_value(name, tokens[++i]);
    }
}

}  // namespace pinpoint
