#include "devtools/analyzer.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <tuple>

#include "core/check.h"
#include "devtools/include_graph.h"
#include "devtools/invariants.h"
#include "devtools/layering.h"
#include "devtools/symbol_index.h"
#include "devtools/tokenizer.h"
#include "trace/chrome_trace.h"

namespace pinpoint {
namespace devtools {
namespace {

namespace fs = std::filesystem;

void
add(std::vector<Violation> &out, const std::string &check,
    const std::string &path, int line, const std::string &detail)
{
    Violation v;
    v.check = check;
    v.path = path;
    v.line = line;
    v.detail = detail;
    out.push_back(std::move(v));
}

// ------------------------------------------------------- layer DAG

void
layer_pass(const IncludeGraph &graph, const LayerTable &table,
           const std::string &layering_path,
           std::vector<Violation> &out)
{
    // Table drift: every src/ subdirectory must be declared, and
    // every declared layer must still exist on disk.
    std::set<std::string> disk_layers;
    for (const auto &entry : graph.files()) {
        const std::string layer =
            LayerTable::layer_of(entry.first);
        if (!layer.empty() && !entry.second.audit_only)
            disk_layers.insert(layer);
    }
    for (const std::string &layer : disk_layers) {
        if (!table.has_layer(layer))
            add(out, "layer-table-drift", layering_path, 0,
                "src/" + layer +
                    " exists on disk but is not declared in the "
                    "layer table");
    }
    for (const Layer &layer : table.layers()) {
        if (disk_layers.count(layer.name) == 0)
            add(out, "layer-table-drift", layering_path,
                layer.line,
                "layer '" + layer.name +
                    "' is declared but src/" + layer.name +
                    " has no source files");
    }

    // Edge check: every cross-layer include must be an allowed
    // dependency of the including layer.
    for (const auto &entry : graph.files()) {
        const SourceFile &file = entry.second;
        if (file.audit_only)
            continue;
        const std::string from =
            LayerTable::layer_of(file.path);
        if (from.empty())
            continue;  // tools/bench/examples sit above the DAG
        for (const ResolvedInclude &inc : file.includes) {
            if (inc.target.empty())
                continue;
            const std::string to =
                LayerTable::layer_of(inc.target);
            if (to.empty()) {
                add(out, "layer-violation", file.path,
                    inc.directive.line,
                    "include edge " + file.path + " -> " +
                        inc.target +
                        ": library code may not depend on "
                        "application files");
                continue;
            }
            if (to == from || !table.has_layer(from) ||
                !table.has_layer(to))
                continue;  // drift pass reports unknown layers
            if (table.allows(from, to))
                continue;
            const Layer *layer = table.find(from);
            std::string allowed;
            for (const std::string &dep : layer->allowed)
                allowed += (allowed.empty() ? "" : ", ") + dep;
            if (allowed.empty())
                allowed = "none";
            const char *shape = table.is_upward(from, to)
                                    ? "upward include edge "
                                    : "forbidden include edge ";
            add(out, "layer-violation", file.path,
                inc.directive.line,
                shape + file.path + " -> " + inc.target +
                    ": layer '" + from + "' may not depend on '" +
                    to + "' (allowed: " + allowed + ")");
        }
    }
}

/** DFS cycle finder over resolved include edges. */
class CycleFinder
{
  public:
    CycleFinder(const IncludeGraph &graph,
                std::vector<Violation> &out)
        : graph_(graph), out_(out)
    {
    }

    void run()
    {
        for (const auto &entry : graph_.files())
            if (!entry.second.audit_only)
                visit(entry.first);
    }

  private:
    void visit(const std::string &node)
    {
        auto state = color_.find(node);
        if (state != color_.end())
            return;  // black or gray: handled elsewhere
        color_[node] = 1;
        stack_.push_back(node);
        const SourceFile *file = graph_.find(node);
        if (file != nullptr) {
            for (const ResolvedInclude &inc : file->includes) {
                if (inc.target.empty())
                    continue;
                auto seen = color_.find(inc.target);
                if (seen == color_.end()) {
                    visit(inc.target);
                } else if (seen->second == 1) {
                    report(inc.target, inc.directive.line);
                }
            }
        }
        stack_.pop_back();
        color_[node] = 2;
    }

    void report(const std::string &back_to, int line)
    {
        auto begin = std::find(stack_.begin(), stack_.end(),
                               back_to);
        if (begin == stack_.end())
            return;
        std::vector<std::string> cycle(begin, stack_.end());
        // Canonical rotation (smallest node first) so one cycle is
        // reported once no matter where the DFS entered it.
        auto min_it =
            std::min_element(cycle.begin(), cycle.end());
        std::rotate(cycle.begin(), min_it, cycle.end());
        std::string chain;
        for (const std::string &node : cycle)
            chain += node + " -> ";
        chain += cycle.front();
        if (!reported_.insert(chain).second)
            return;
        add(out_, "include-cycle", cycle.front(), line,
            "include cycle: " + chain);
    }

    const IncludeGraph &graph_;
    std::vector<Violation> &out_;
    std::map<std::string, int> color_;  // 1 gray, 2 black
    std::vector<std::string> stack_;
    std::set<std::string> reported_;
};

// ------------------------------------------------------- IWYU-lite

std::string
paired_header_of(const IncludeGraph &graph,
                 const SourceFile &file)
{
    if (file.is_header)
        return "";
    const auto dot = file.path.rfind('.');
    if (dot == std::string::npos)
        return "";
    for (const char *ext : {".h", ".hpp"}) {
        const std::string cand = file.path.substr(0, dot) + ext;
        if (graph.find(cand) != nullptr)
            return cand;
    }
    return "";
}

/** Declared symbols of @p path plus, for umbrellas, everything the
 *  header re-exports through its own includes. */
std::set<std::string>
exported_symbols(const IncludeGraph &graph,
                 const LayerTable &table, const std::string &path)
{
    const SourceFile *file = graph.find(path);
    if (file == nullptr)
        return {};
    std::set<std::string> symbols = file->symbols.declared;
    if (table.umbrellas().count(path) != 0) {
        for (const std::string &t : graph.reachable_from(path)) {
            const SourceFile *target = graph.find(t);
            if (target != nullptr && !target->audit_only)
                symbols.insert(target->symbols.declared.begin(),
                               target->symbols.declared.end());
        }
    }
    return symbols;
}

bool
intersects(const std::set<std::string> &a,
           const std::set<std::string> &b)
{
    const std::set<std::string> &small =
        a.size() <= b.size() ? a : b;
    const std::set<std::string> &large =
        a.size() <= b.size() ? b : a;
    for (const std::string &s : small)
        if (large.count(s) != 0)
            return true;
    return false;
}

void
iwyu_pass(const IncludeGraph &graph, const LayerTable &table,
          std::vector<Violation> &out)
{
    for (const auto &entry : graph.files()) {
        const SourceFile &file = entry.second;
        if (file.audit_only)
            continue;
        const std::set<std::string> refs =
            referenced_identifiers(file.scan);
        const std::string paired =
            paired_header_of(graph, file);

        // Direct includes, deduplicated, with their first line.
        std::map<std::string, int> direct;
        for (const ResolvedInclude &inc : file.includes)
            if (!inc.target.empty())
                direct.emplace(inc.target, inc.directive.line);

        // --- unused-include: a directly included repo header must
        // contribute at least one referenced symbol. Umbrella
        // headers are exempt as includers: re-exporting headers
        // they never reference is their entire purpose.
        const bool is_umbrella =
            table.umbrellas().count(file.path) != 0;
        for (const auto &d : direct) {
            const std::string &target = d.first;
            if (is_umbrella)
                break;
            if (target == paired)
                continue;  // the x.cc -> x.h edge is structural
            const std::set<std::string> exported =
                exported_symbols(graph, table, target);
            if (exported.empty())
                continue;  // nothing indexed; don't guess
            if (!intersects(refs, exported))
                add(out, "unused-include", file.path, d.second,
                    "include of \"" + target +
                        "\" contributes no symbol referenced by "
                        "this file");
        }

        // --- missing-direct-include: symbols must come from a
        // direct include (or one forwarded by an umbrella).
        std::set<std::string> covered_symbols =
            file.symbols.declared;
        std::set<std::string> covered_headers;
        covered_headers.insert(file.path);
        if (!paired.empty())
            covered_headers.insert(paired);
        for (const auto &d : direct) {
            covered_headers.insert(d.first);
            const std::set<std::string> exported =
                exported_symbols(graph, table, d.first);
            covered_symbols.insert(exported.begin(),
                                   exported.end());
            if (table.umbrellas().count(d.first) != 0) {
                for (const std::string &t :
                     graph.reachable_from(d.first))
                    covered_headers.insert(t);
            }
        }
        if (!paired.empty()) {
            const std::set<std::string> exported =
                exported_symbols(graph, table, paired);
            covered_symbols.insert(exported.begin(),
                                   exported.end());
        }

        // Uncovered transitive headers; a symbol declared by more
        // than one of them is ambiguous and never flagged.
        std::vector<std::string> uncovered;
        std::map<std::string, int> decl_count;
        for (const std::string &t :
             graph.reachable_from(file.path)) {
            if (covered_headers.count(t) != 0)
                continue;
            const SourceFile *target = graph.find(t);
            if (target == nullptr || target->audit_only)
                continue;
            uncovered.push_back(t);
            for (const std::string &sym :
                 target->symbols.declared)
                ++decl_count[sym];
        }
        for (const std::string &t : uncovered) {
            const SourceFile *target = graph.find(t);
            std::string evidence;
            for (const std::string &sym :
                 target->symbols.declared) {
                if (refs.count(sym) == 0 ||
                    covered_symbols.count(sym) != 0 ||
                    decl_count[sym] > 1)
                    continue;
                evidence = sym;
                break;
            }
            if (evidence.empty())
                continue;
            int line = 0;
            for (const auto &d : direct) {
                if (graph.reachable_from(d.first).count(t) != 0) {
                    line = d.second;
                    break;
                }
            }
            add(out, "missing-direct-include", file.path, line,
                "uses '" + evidence + "' from \"" + t +
                    "\" only via transitive includes; include it "
                    "directly");
        }
    }
}

// --------------------------------------------------------- hygiene

bool
has_dotdot_segment(const std::string &path)
{
    std::string part;
    for (char c : path + "/") {
        if (c == '/') {
            if (part == "..")
                return true;
            part.clear();
        } else {
            part.push_back(c);
        }
    }
    return false;
}

void
hygiene_pass(const IncludeGraph &graph,
             std::vector<Violation> &out)
{
    for (const auto &entry : graph.files()) {
        const SourceFile &file = entry.second;
        if (file.audit_only)
            continue;
        if (file.is_header && !file.scan.has_pragma_once)
            add(out, "pragma-once", file.path, 1,
                "header has no #pragma once");
        if (file.is_header) {
            for (const UsingNamespace &un :
                 file.symbols.using_namespace)
                add(out, "using-namespace-header", file.path,
                    un.line,
                    "'using namespace " + un.name +
                        "' at namespace scope in a header leaks "
                        "into every includer");
        }
        for (const ResolvedInclude &inc : file.includes) {
            if (inc.directive.kind ==
                IncludeDirective::Kind::kComputed) {
                add(out, "computed-include", file.path,
                    inc.directive.line,
                    "computed include '#include " +
                        inc.directive.path +
                        "' cannot be resolved statically");
                continue;
            }
            if (has_dotdot_segment(inc.directive.path))
                add(out, "relative-include", file.path,
                    inc.directive.line,
                    "include path \"" + inc.directive.path +
                        "\" escapes its directory with ../");
        }
    }
}

// ----------------------------------------------- suppression audit

/** One pending `analyze: allow` awaiting a violation to consume. */
struct AnalyzeSuppression {
    std::string path;
    std::string check;
    std::set<int> lines;
    int comment_line = 0;
    bool consumed = false;
};

void
audit_pass(const IncludeGraph &graph,
           std::vector<Violation> &raw,
           std::vector<Violation> &out)
{
    std::vector<AnalyzeSuppression> analyze_sups;
    const auto &known = check_ids();
    for (const auto &entry : graph.files()) {
        const SourceFile &file = entry.second;
        for (const SuppressionComment &sup :
             file.scan.suppressions) {
            for (const std::string &id : sup.ids) {
                if (std::find(known.begin(), known.end(), id) ==
                    known.end()) {
                    add(out, "stale-suppression", file.path,
                        sup.line,
                        "suppression names unknown analyzer "
                        "check '" +
                            id + "'");
                    continue;
                }
                AnalyzeSuppression pending;
                pending.path = file.path;
                pending.check = id;
                pending.lines = {sup.line};
                if (sup.standalone)
                    pending.lines.insert(sup.line + 1);
                pending.comment_line = sup.line;
                analyze_sups.push_back(std::move(pending));
            }
        }
    }

    // Filter raw violations through the analyze suppressions, then
    // flag every suppression that shielded nothing.
    std::vector<Violation> kept;
    kept.reserve(raw.size());
    for (Violation &v : raw) {
        bool suppressed = false;
        for (AnalyzeSuppression &sup : analyze_sups) {
            if (sup.path == v.path && sup.check == v.check &&
                sup.lines.count(v.line) != 0) {
                sup.consumed = true;
                suppressed = true;
            }
        }
        if (!suppressed)
            kept.push_back(std::move(v));
    }
    raw = std::move(kept);
    for (const AnalyzeSuppression &sup : analyze_sups) {
        if (!sup.consumed)
            add(out, "stale-suppression", sup.path,
                sup.comment_line,
                "analyzer check '" + sup.check +
                    "' reports no violation on the suppressed "
                    "line; remove the allow comment");
    }
}

std::string
read_text_file(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw Error("cannot read " + path.generic_string());
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

const char kDocBegin[] = "<!-- layering:begin -->";
const char kDocEnd[] = "<!-- layering:end -->";

/** The generated Layering block, both markers included. */
std::string
render_layering_block(const LayerTable &table)
{
    std::ostringstream os;
    os << kDocBegin << "\n"
       << "<!-- Generated from tools/layering.txt by\n"
          "     pinpoint_analyze --layering-doc --write. Do not\n"
          "     edit by hand; the layering_doc_drift test diffs\n"
          "     this block against the table. -->\n\n"
          "| Layer | May include |\n| --- | --- |\n";
    for (const Layer &layer : table.layers()) {
        os << "| `" << layer.name << "` | ";
        // Deps in declaration (lowest-first) order, as in the table.
        std::string deps;
        for (const Layer &dep : table.layers())
            if (table.allows(layer.name, dep.name) &&
                dep.name != layer.name)
                deps += (deps.empty() ? "`" : ", `") + dep.name + "`";
        os << (deps.empty() ? "(nothing)" : deps) << " |\n";
    }
    if (!table.umbrellas().empty()) {
        os << "\nUmbrella (forwarding) headers, exempt from the "
              "unused-include check as includers:\n\n";
        for (const std::string &u : table.umbrellas())
            os << "- `" << u << "`\n";
    }
    os << kDocEnd;
    return os.str();
}

}  // namespace

bool
Violation::operator<(const Violation &other) const
{
    return std::tie(path, line, check, detail) <
           std::tie(other.path, other.line, other.check,
                    other.detail);
}

const std::vector<std::string> &
check_ids()
{
    static const std::vector<std::string> ids = [] {
        std::vector<std::string> out = {
            "computed-include",       "include-cycle",
            "layer-table-drift",      "layer-violation",
            "missing-direct-include", "pragma-once",
            "relative-include",       "stale-suppression",
            "unused-include",         "using-namespace-header",
        };
        out.insert(out.end(), invariant_check_ids().begin(),
                   invariant_check_ids().end());
        std::sort(out.begin(), out.end());
        return out;
    }();
    return ids;
}

AnalysisResult
analyze(const AnalyzerConfig &config)
{
    AnalysisResult result;
    result.table = LayerTable::parse(read_text_file(
        fs::path(config.root) / config.layering_path));
    const IncludeGraph graph = IncludeGraph::load(
        config.root, config.graph_dirs, config.audit_dirs,
        config.skip_prefixes);

    std::vector<Violation> raw;
    layer_pass(graph, result.table, config.layering_path, raw);
    CycleFinder(graph, raw).run();
    iwyu_pass(graph, result.table, raw);
    hygiene_pass(graph, raw);
    for (const auto &entry : graph.files())
        invariant_pass(entry.first,
                       tokenize(entry.second.scan.masked), raw);

    std::vector<Violation> audit;
    audit_pass(graph, raw, audit);
    raw.insert(raw.end(),
               std::make_move_iterator(audit.begin()),
               std::make_move_iterator(audit.end()));

    std::sort(raw.begin(), raw.end());
    raw.erase(std::unique(raw.begin(), raw.end(),
                          [](const Violation &a,
                             const Violation &b) {
                              return a.path == b.path &&
                                     a.line == b.line &&
                                     a.check == b.check &&
                                     a.detail == b.detail;
                          }),
              raw.end());
    result.violations = std::move(raw);
    result.edges = graph.edges();
    for (const auto &entry : graph.files())
        if (!entry.second.audit_only)
            ++result.file_count;
    return result;
}

int
render_human(const AnalysisResult &result, std::ostream &out)
{
    for (const Violation &v : result.violations) {
        out << v.path << ":" << v.line << ": [" << v.check << "] "
            << v.detail << "\n";
    }
    out << "pinpoint_analyze: " << result.file_count << " files, "
        << result.edges.size() << " include edges, "
        << result.violations.size() << " violation(s)\n";
    return result.violations.empty() ? 0 : 1;
}

void
render_json(const AnalysisResult &result, std::ostream &out)
{
    out << "{\n  \"files\": " << result.file_count << ",\n";
    out << "  \"layers\": [";
    bool first = true;
    for (const Layer &layer : result.table.layers()) {
        out << (first ? "" : ", ") << "{\"name\": \""
            << trace::json_escape(layer.name)
            << "\", \"allowed\": [";
        bool inner = true;
        for (const std::string &dep : layer.allowed) {
            out << (inner ? "" : ", ") << "\""
                << trace::json_escape(dep) << "\"";
            inner = false;
        }
        out << "]}";
        first = false;
    }
    out << "],\n  \"edges\": [";
    first = true;
    for (const auto &edge : result.edges) {
        out << (first ? "" : ", ") << "[\""
            << trace::json_escape(edge.first) << "\", \""
            << trace::json_escape(edge.second) << "\"]";
        first = false;
    }
    out << "],\n  \"violations\": [";
    first = true;
    for (const Violation &v : result.violations) {
        out << (first ? "" : ", ")
            << "{\"check\": \"" << trace::json_escape(v.check)
            << "\", \"path\": \"" << trace::json_escape(v.path)
            << "\", \"line\": " << v.line << ", \"detail\": \""
            << trace::json_escape(v.detail) << "\"}";
        first = false;
    }
    out << "]\n}\n";
}

int
check_layering_doc(const AnalyzerConfig &config, bool write,
                   std::ostream &out)
{
    const std::string expected =
        render_layering_block(LayerTable::parse(read_text_file(
            fs::path(config.root) / config.layering_path)));
    const fs::path doc_path =
        fs::path(config.root) / "docs" / "ARCHITECTURE.md";
    const std::string doc = read_text_file(doc_path);
    const auto begin = doc.find(kDocBegin);
    const auto end = doc.find(kDocEnd);
    if (begin == std::string::npos || end == std::string::npos ||
        end < begin)
        throw Error(doc_path.generic_string() + " has no " +
                    kDocBegin + " .. " + kDocEnd + " block");
    const auto stop = end + std::strlen(kDocEnd);
    if (doc.compare(begin, stop - begin, expected) == 0) {
        out << "layering doc in sync\n";
        return 0;
    }
    if (write) {
        std::ofstream file(doc_path, std::ios::binary);
        file << doc.substr(0, begin) << expected << doc.substr(stop);
        if (!file.flush())
            throw Error("cannot write " + doc_path.generic_string());
        out << "updated " << doc_path.generic_string() << "\n";
        return 0;
    }
    out << "layering doc drift; the block should read:\n"
        << expected << "\nrun `pinpoint_analyze --layering-doc "
        << "--write` to regenerate it\n";
    return 1;
}

int
run_self_test(const std::string &root, std::ostream &out)
{
    const fs::path fixtures =
        fs::path(root) / "tests" / "devtools" / "fixtures";
    std::error_code ec;
    if (!fs::is_directory(fixtures, ec)) {
        out << "self-test FAIL: missing "
            << fixtures.generic_string() << "\n";
        return 1;
    }
    std::vector<std::string> names;
    for (fs::directory_iterator it(fixtures, ec), end;
         it != end && !ec; it.increment(ec))
        if (it->is_directory())
            names.push_back(it->path().filename().string());
    std::sort(names.begin(), names.end());

    std::vector<std::string> failures;
    std::set<std::string> bad_seen;
    std::set<std::string> ok_seen;
    std::size_t run = 0;
    for (const std::string &name : names) {
        bool expect_bad = false;
        std::string stem;
        const auto ends_with = [&](const char *suffix) {
            const std::string s(suffix);
            return name.size() > s.size() &&
                   name.compare(name.size() - s.size(), s.size(),
                                s) == 0;
        };
        if (ends_with("_bad")) {
            expect_bad = true;
            stem = name.substr(0, name.size() - 4);
        } else if (ends_with("_ok")) {
            stem = name.substr(0, name.size() - 3);
        } else {
            failures.push_back(name +
                               ": fixture directory must end "
                               "_bad or _ok");
            continue;
        }
        std::string check = stem;
        std::replace(check.begin(), check.end(), '_', '-');
        const auto &known = check_ids();
        if (std::find(known.begin(), known.end(), check) ==
            known.end()) {
            failures.push_back(name + ": unknown check '" +
                               check + "'");
            continue;
        }
        ++run;
        AnalyzerConfig config;
        config.root = (fixtures / name).generic_string();
        AnalysisResult result;
        try {
            result = analyze(config);
        } catch (const Error &err) {
            failures.push_back(name + ": " + err.what());
            continue;
        }
        if (expect_bad) {
            bad_seen.insert(check);
            if (result.violations.empty())
                failures.push_back(name + ": expected [" + check +
                                   "] violations, analyzed clean");
            for (const Violation &v : result.violations)
                if (v.check != check)
                    failures.push_back(
                        name + ": also triggers [" + v.check +
                        "] " + v.path + ":" +
                        std::to_string(v.line));
        } else {
            ok_seen.insert(check);
            for (const Violation &v : result.violations)
                failures.push_back(name + ": expected clean, got "
                                   "[" +
                                   v.check + "] " + v.path + ":" +
                                   std::to_string(v.line) + " " +
                                   v.detail);
        }
    }
    for (const std::string &check : check_ids()) {
        if (bad_seen.count(check) == 0)
            failures.push_back("no must-trigger fixture for [" +
                               check + "]");
        if (ok_seen.count(check) == 0)
            failures.push_back("no must-pass fixture for [" +
                               check + "]");
    }
    if (!failures.empty()) {
        for (const std::string &f : failures)
            out << "self-test FAIL: " << f << "\n";
        return 1;
    }
    out << "pinpoint_analyze self-test: " << run << " fixtures, "
        << check_ids().size() << " checks OK\n";
    return 0;
}

}  // namespace devtools
}  // namespace pinpoint
