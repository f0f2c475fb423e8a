#include "devtools/invariants.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <initializer_list>
#include <set>
#include <utility>

#include "devtools/analyzer.h"
#include "devtools/tokenizer.h"

namespace pinpoint {
namespace devtools {
namespace {

using Tokens = std::vector<Token>;
using Hits = std::vector<std::pair<int, std::string>>;

/** True when token @p i exists and spells @p text. */
bool
at(const Tokens &t, std::size_t i, const char *text)
{
    return i < t.size() && t[i].text == text;
}

bool
ident_at(const Tokens &t, std::size_t i)
{
    return i < t.size() && t[i].kind == TokenKind::kIdentifier;
}

bool
one_of(const std::string &s, std::initializer_list<const char *> set)
{
    for (const char *w : set)
        if (s == w)
            return true;
    return false;
}

/** True when tokens i-3..i-1 spell `std ::`. */
bool
std_qualified(const Tokens &t, std::size_t i)
{
    return i >= 3 && t[i - 1].text == ":" && t[i - 2].text == ":" &&
           t[i - 3].text == "std";
}

/**
 * Index one past the `>` that closes the `<` at @p open, or
 * t.size() when a `;` or `{` comes first.
 */
std::size_t
skip_angles(const Tokens &t, std::size_t open)
{
    int depth = 0;
    for (std::size_t k = open; k < t.size(); ++k) {
        if (t[k].text == "<") {
            ++depth;
        } else if (t[k].text == ">") {
            if (--depth == 0)
                return k + 1;
        } else if (t[k].text == ";" || t[k].text == "{") {
            break;
        }
    }
    return t.size();
}

/**
 * The name a declarator starting at @p k declares: optional `&` /
 * `*`, an identifier, then one of the punctuation chars in @p ends.
 * Empty when the tokens have another shape.
 */
std::string
declared_name(const Tokens &t, std::size_t k, const char *ends)
{
    while (at(t, k, "&") || at(t, k, "*"))
        ++k;
    if (!ident_at(t, k) || k + 1 >= t.size())
        return "";
    const std::string &next = t[k + 1].text;
    return next.size() == 1 && std::strchr(ends, next[0]) != nullptr
               ? t[k].text
               : "";
}

bool
in_src(const std::string &path)
{
    return path.compare(0, 4, "src/") == 0;
}

// ------------------------------------------------------------ rules

void
timeline_construction(const Tokens &t, Hits &hits)
{
    // The class definition itself (`class Timeline {`) is no
    // construction.
    for (std::size_t i = 1; i < t.size(); ++i) {
        const std::string &prev = t[i - 1].text;
        if (t[i].text == "Timeline" && prev != "class" &&
            prev != "struct" &&
            (at(t, i + 1, "(") || at(t, i + 1, "{") || prev == "new"))
            hits.emplace_back(t[i].line,
                              "Timeline constructed outside TraceView");
    }
}

/** The per-block layers: alloc, the engine, analysis, swap, relief. */
bool
per_block_layer(const std::string &path)
{
    for (const char *dir : {"src/alloc/", "src/analysis/", "src/swap/",
                            "src/relief/", "src/runtime/engine."})
        if (path.compare(0, std::strlen(dir), dir) == 0)
            return true;
    return false;
}

void
block_id_hash(const Tokens &t, Hits &hits)
{
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (!one_of(t[i].text,
                    {"map", "multimap", "set", "multiset",
                     "unordered_map", "unordered_multimap",
                     "unordered_set", "unordered_multiset",
                     "FlatTable"}) ||
            !at(t, i + 1, "<"))
            continue;
        std::size_t k = i + 2;
        if (at(t, k, "pinpoint") && at(t, k + 1, ":") &&
            at(t, k + 2, ":"))
            k += 3;
        if (at(t, k, "BlockId") || at(t, k, "TensorId"))
            hits.emplace_back(t[i].line,
                              "'" + t[i].text + "' keyed by " +
                                  t[k].text +
                                  " (index a vector by the dense id "
                                  "or the TraceView slot)");
    }
}

void
raw_number_parse(const Tokens &t, Hits &hits)
{
    for (std::size_t i = 0; i < t.size(); ++i)
        if (one_of(t[i].text,
                   {"stoi", "stol", "stoll", "stoul", "stoull", "stof",
                    "stod", "stold", "strtol", "strtoll", "strtoul",
                    "strtoull", "strtod", "strtof", "atoi", "atol",
                    "atoll", "atof", "sscanf"}) &&
            at(t, i + 1, "("))
            hits.emplace_back(t[i].line, "raw number parse '" +
                                             t[i].text +
                                             "' outside core/parse");
}

/** `time(` at @p i is the libc wall clock: std::time(...), or an
 *  unqualified time() / time(0) / time(NULL) / time(nullptr) — never
 *  a member call or a declaration such as `TimeNs time(size_t)`. */
bool
wall_clock_call(const Tokens &t, std::size_t i)
{
    if (!at(t, i + 1, "("))
        return false;
    if (std_qualified(t, i))
        return true;
    if (i > 0 && one_of(t[i - 1].text, {".", ">", ":"}))
        return false;
    return at(t, i + 2, ")") ||
           (i + 2 < t.size() &&
            one_of(t[i + 2].text, {"0", "NULL", "nullptr"}) &&
            at(t, i + 3, ")"));
}

void
nondeterminism_source(const Tokens &t, Hits &hits)
{
    for (std::size_t i = 0; i < t.size(); ++i) {
        const std::string &w = t[i].text;
        if (w == "random_device" || w == "system_clock" ||
            ((w == "rand" || w == "srand") && at(t, i + 1, "(")) ||
            (w == "time" && wall_clock_call(t, i)))
            hits.emplace_back(t[i].line, "nondeterminism source '" +
                                             w + "' in src/");
    }
}

/** Export-path files: src/cli/, or a name that says it renders bytes
 *  for the outside world. */
bool
export_path(const std::string &path)
{
    if (!in_src(path))
        return false;
    std::string lower = path;
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (lower.compare(0, 8, "src/cli/") == 0)
        return true;
    for (const char *hint : {"csv", "json", "export", "chrome_trace",
                             "report", "format", "to_string"})
        if (lower.find(hint) != std::string::npos)
            return true;
    return false;
}

void
unordered_export_iteration(const Tokens &t, Hits &hits)
{
    // Names bound to an unordered container: declarations,
    // references, parameters, and `using X = std::unordered_map`.
    std::set<std::string> names;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (one_of(t[i].text, {"unordered_map", "unordered_set"}) &&
            at(t, i + 1, "<")) {
            const std::string name =
                declared_name(t, skip_angles(t, i + 1), ";,)({=");
            if (!name.empty())
                names.insert(name);
        }
        if (t[i].text == "using" && ident_at(t, i + 1) &&
            at(t, i + 2, "=")) {
            std::size_t k = i + 3;
            if (at(t, k, "std") && at(t, k + 1, ":") &&
                at(t, k + 2, ":"))
                k += 3;
            if (at(t, k, "unordered_map") || at(t, k, "unordered_set"))
                names.insert(t[i + 1].text);
        }
    }
    if (names.empty())
        return;
    const auto hit = [&](const Token &name) {
        hits.emplace_back(name.line,
                          "iteration over unordered container '" +
                              name.text + "' in an export path");
    };
    for (std::size_t i = 0; i < t.size(); ++i) {
        // for (<decl> : [obj.]name)
        if (t[i].text == "for" && at(t, i + 1, "(")) {
            std::size_t k = i + 2;
            while (k < t.size() && !one_of(t[k].text, {";", "(", ")"}))
                ++k;
            if (at(t, k, ")") && names.count(t[k - 1].text) != 0) {
                std::size_t before = k - 2;
                if (at(t, before, ".") && ident_at(t, before - 1))
                    before -= 2;
                if (at(t, before, ":"))
                    hit(t[k - 1]);
            }
        }
        // name.begin( / name.cbegin(
        if (names.count(t[i].text) != 0 && at(t, i + 1, ".") &&
            (at(t, i + 2, "begin") || at(t, i + 2, "cbegin")) &&
            at(t, i + 3, "("))
            hit(t[i]);
    }
}

void
positional_strategy_index(const Tokens &t, Hits &hits)
{
    // Names bound to a per-Strategy array: std::array<ReliefReport,
    // ...> declarations, and `auto` bindings of plan_all() /
    // relief_all() results.
    std::set<std::string> names;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].text == "array" && std_qualified(t, i) &&
            at(t, i + 1, "<")) {
            std::size_t k = i + 2;
            if (at(t, k, "relief") && at(t, k + 1, ":") &&
                at(t, k + 2, ":"))
                k += 3;
            if (at(t, k, "ReliefReport")) {
                const std::string name =
                    declared_name(t, skip_angles(t, i + 1), ";({=");
                if (!name.empty())
                    names.insert(name);
            }
        }
        if (t[i].text == "auto") {
            std::size_t k = i + 1;
            if (at(t, k, "&"))
                ++k;
            if (!ident_at(t, k) || !at(t, k + 1, "="))
                continue;
            for (std::size_t m = k + 2; m < t.size() && t[m].text != ";";
                 ++m) {
                if (one_of(t[m].text, {"plan_all", "relief_all"}) &&
                    at(t, m + 1, "(")) {
                    names.insert(t[k].text);
                    break;
                }
            }
        }
    }
    for (std::size_t i = 0; i + 3 < t.size(); ++i) {
        const std::string &index = t[i + 2].text;
        if (names.count(t[i].text) != 0 && t[i + 1].text == "[" &&
            t[i + 2].kind == TokenKind::kNumber &&
            std::all_of(index.begin(), index.end(),
                        [](unsigned char c) {
                            return std::isdigit(c) != 0;
                        }) &&
            t[i + 3].text == "]")
            hits.emplace_back(t[i].line,
                              "positional index [" + index +
                                  "] into per-Strategy array '" +
                                  t[i].text +
                                  "' (use Strategy::k... enumerator)");
    }
}

void
inference_plan_purity(const Tokens &t, Hits &hits)
{
    for (const Token &tok : t)
        if (one_of(tok.text, {"kBackward", "kOptimizer", "emit_backward",
                              "emit_optimizer", "sgd_momentum"}))
            hits.emplace_back(tok.line, "training-phase reference '" +
                                            tok.text +
                                            "' in the serving driver");
}

void
result_field_serialization(const Tokens &t, Hits &hits)
{
    // Names bound to a ScenarioResult on the declaration's line: the
    // first identifier after the type that ends a declarator.
    std::set<std::string> names;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].text != "ScenarioResult")
            continue;
        for (std::size_t k = i + 1;
             k + 1 < t.size() && t[k].line == t[i].line &&
             !one_of(t[k].text, {";", "=", "("});
             ++k) {
            if (ident_at(t, k) &&
                one_of(t[k + 1].text, {";", ",", ")", "(", "{", "="})) {
                names.insert(t[k].text);
                break;
            }
        }
    }
    if (names.empty())
        return;
    // Lines that emit bytes: a stream insertion or a printf call.
    std::set<int> emitting;
    for (std::size_t i = 0; i + 1 < t.size(); ++i)
        if ((t[i].text == "<" && t[i + 1].text == "<") ||
            (one_of(t[i].text,
                    {"printf", "fprintf", "sprintf", "snprintf"}) &&
             t[i + 1].text == "("))
            emitting.insert(t[i].line);
    // Identity fields (scenario, status, error) may be printed by
    // anyone; only the metric payload is codec-owned.
    for (std::size_t i = 0; i + 2 < t.size(); ++i)
        if (names.count(t[i].text) != 0 && t[i + 1].text == "." &&
            ident_at(t, i + 2) && emitting.count(t[i].line) != 0 &&
            !one_of(t[i + 2].text, {"scenario", "status", "error"}))
            hits.emplace_back(t[i].line,
                              "ScenarioResult field '" + t[i].text +
                                  "." + t[i + 2].text +
                                  "' serialized outside the "
                                  "sweep/export codec");
}

/** One invariant: its id, the files it covers, and its matcher. */
struct Rule {
    const char *id;
    bool (*applies)(const std::string &path);
    void (*check)(const Tokens &t, Hits &hits);
};

const std::vector<Rule> &
rules()
{
    static const std::vector<Rule> table = {
        {"timeline-construction",
         [](const std::string &p) {
             return p != "src/analysis/timeline.h" &&
                    p != "src/analysis/timeline.cc" &&
                    p != "src/analysis/trace_view.cc";
         },
         timeline_construction},
        {"raw-number-parse",
         [](const std::string &p) { return p != "src/core/parse.cc"; },
         raw_number_parse},
        // trace_view.cc holds the freeze's one BlockId table.
        {"block-id-hash",
         [](const std::string &p) {
             return per_block_layer(p) &&
                    p != "src/analysis/trace_view.cc";
         },
         block_id_hash},
        {"nondeterminism-source", in_src, nondeterminism_source},
        {"unordered-export-iteration", export_path,
         unordered_export_iteration},
        {"positional-strategy-index",
         [](const std::string &) { return true; },
         positional_strategy_index},
        {"inference-plan-purity",
         [](const std::string &p) {
             return p.compare(0, 26, "src/runtime/request_stream") == 0;
         },
         inference_plan_purity},
        {"result-field-serialization",
         [](const std::string &p) {
             return in_src(p) && p != "src/sweep/export.cc";
         },
         result_field_serialization},
    };
    return table;
}

}  // namespace

const std::vector<std::string> &
invariant_check_ids()
{
    static const std::vector<std::string> ids = [] {
        std::vector<std::string> out;
        for (const Rule &rule : rules())
            out.emplace_back(rule.id);
        return out;
    }();
    return ids;
}

void
invariant_pass(const std::string &path, const std::vector<Token> &tokens,
               std::vector<Violation> &out)
{
    for (const Rule &rule : rules()) {
        if (!rule.applies(path))
            continue;
        Hits hits;
        rule.check(tokens, hits);
        for (auto &hit : hits) {
            Violation v;
            v.check = rule.id;
            v.path = path;
            v.line = hit.first;
            v.detail = std::move(hit.second);
            out.push_back(std::move(v));
        }
    }
}

}  // namespace devtools
}  // namespace pinpoint
