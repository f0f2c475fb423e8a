/**
 * @file
 * The pinpoint_analyze pass pipeline: five static-analysis passes
 * over the scanned tree, each producing Violations with a stable
 * check id, filtered through `// analyze: allow(<check>)`
 * suppressions (on the line, or alone on the line above) and
 * rendered as a human report or deterministic JSON (sorted
 * violations and edges; byte-identical across runs).
 *
 * Passes and their check ids:
 *
 *   layer DAG     layer-violation, include-cycle, layer-table-drift
 *   IWYU-lite     unused-include, missing-direct-include
 *   hygiene       pragma-once, using-namespace-header,
 *                 relative-include, computed-include
 *   invariants    the code-shape rules of devtools/invariants.h
 *   suppressions  stale-suppression
 */
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "devtools/layering.h"

namespace pinpoint {
namespace devtools {

/** One finding of one pass. */
struct Violation {
    std::string check;   ///< Stable check id (see file comment).
    std::string path;    ///< Repo-relative file.
    int line = 0;        ///< 1-based, 0 when file-level.
    std::string detail;  ///< Human sentence naming the evidence.

    bool operator<(const Violation &other) const;
};

/** Analyzer configuration; defaults mirror the repo layout. */
struct AnalyzerConfig {
    std::string root = ".";
    /// Relative to root; the committed layer table.
    std::string layering_path = "tools/layering.txt";
    std::vector<std::string> graph_dirs = {"src", "tools", "bench",
                                           "examples"};
    /// Outside the include graph: invariants and suppressions only.
    std::vector<std::string> audit_dirs = {"tests"};
    /// Deliberate-violation fixture trees, never analyzed.
    std::vector<std::string> skip_prefixes = {
        "tests/devtools/fixtures/"};
};

/** Result of one analyzer run. */
struct AnalysisResult {
    std::size_t file_count = 0;
    std::vector<std::pair<std::string, std::string>> edges;
    LayerTable table;
    std::vector<Violation> violations;  ///< Sorted, suppressed
                                        ///< findings removed.
};

/** Every check id the analyzer can emit (sorted). */
const std::vector<std::string> &check_ids();

/**
 * Runs every pass. @throws pinpoint::Error when the layering
 * table is missing or malformed (a configuration error, not a
 * finding).
 */
AnalysisResult analyze(const AnalyzerConfig &config);

/** Renders the human report; returns the process exit code. */
int render_human(const AnalysisResult &result, std::ostream &out);

/** Renders deterministic JSON (trailing newline included). */
void render_json(const AnalysisResult &result, std::ostream &out);

/**
 * Compares the generated "Layering" block of docs/ARCHITECTURE.md
 * (between the layering:begin/end markers) with the block rendered
 * from the layer table, or rewrites it when @p write is set.
 * @returns 0 in sync (or rewritten), 1 drift. @throws
 * pinpoint::Error when either file is missing or malformed.
 */
int check_layering_doc(const AnalyzerConfig &config, bool write,
                       std::ostream &out);

/**
 * Runs the fixture self-test: every directory under
 * tests/devtools/fixtures/ named <check>_bad must produce only
 * that check's violations and every <check>_ok directory must
 * analyze clean, with every check id covered by at least one bad
 * and one ok fixture.
 * @returns the process exit code.
 */
int run_self_test(const std::string &root, std::ostream &out);

}  // namespace devtools
}  // namespace pinpoint

