#include "cli/flags.h"

#include "core/check.h"
#include "core/parse.h"

namespace pinpoint {
namespace cli {
namespace {

/** @return the spec named @p name, or null. */
const FlagSpec *
find_spec(const std::vector<FlagSpec> &specs, const std::string &name)
{
    for (const auto &spec : specs)
        if (spec.name == name)
            return &spec;
    return nullptr;
}

}  // namespace

bool
ParsedArgs::has(const std::string &name) const
{
    return values_.count(name) != 0;
}

bool
ParsedArgs::flag(const std::string &name) const
{
    return switches_.count(name) != 0;
}

std::string
ParsedArgs::value(const std::string &name,
                  const std::string &fallback) const
{
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
}

const std::string *
ParsedArgs::raw(const std::string &name) const
{
    const auto it = values_.find(name);
    return it == values_.end() ? nullptr : &it->second;
}

std::int64_t
ParsedArgs::int64_value(const std::string &name,
                        std::int64_t fallback) const
{
    const std::string *text = raw(name);
    return text ? parse_int64_flag(name, *text) : fallback;
}

int
ParsedArgs::int_value(const std::string &name, int fallback) const
{
    const std::string *text = raw(name);
    return text ? parse_int_flag(name, *text) : fallback;
}

double
ParsedArgs::double_value(const std::string &name, double fallback) const
{
    const std::string *text = raw(name);
    return text ? parse_double_flag(name, *text) : fallback;
}

ParsedArgs
parse_args(const std::vector<FlagSpec> &specs,
           const std::vector<std::string> &tokens)
{
    ParsedArgs parsed;
    FlagWalkHandler handler;
    handler.takes_value = [&](const std::string &name) {
        const FlagSpec *spec = find_spec(specs, name);
        if (!spec)
            throw UsageError("unknown flag '--" + name + "'");
        return spec->kind == FlagKind::kValue;
    };
    handler.on_switch = [&](const std::string &name) {
        parsed.switches_.insert(find_spec(specs, name)->name);
    };
    handler.on_value = [&](const std::string &name,
                           const std::string &value) {
        parsed.values_[find_spec(specs, name)->name] = value;
    };
    walk_flag_tokens(tokens, handler);
    return parsed;
}

}  // namespace cli
}  // namespace pinpoint
