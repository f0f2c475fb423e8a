/**
 * @file
 * Repo-invariant checks of pinpoint_analyze: code-shape rules that
 * keep the architecture invariants of docs/ARCHITECTURE.md true by
 * construction. Each rule reads one file's masked token stream, so
 * comments and string literals (raw strings included) never trigger
 * a rule, and a rule may match across a line break.
 *
 *   timeline-construction       Timeline is built only by TraceView
 *   raw-number-parse            text-to-number goes through core/parse
 *   block-id-hash               no map keyed by BlockId or TensorId in
 *                               the per-block layers, but the freeze's
 *                               one table in analysis/trace_view.cc
 *   nondeterminism-source       no wall clock or unseeded RNG in src/
 *   unordered-export-iteration  no hash-order iteration in export paths
 *   positional-strategy-index   per-Strategy arrays use enumerators
 *   inference-plan-purity       no training work in the serving driver
 *   result-field-serialization  ScenarioResult metrics leave the
 *                               process only through sweep/export.cc
 */
#pragma once

#include <string>
#include <vector>

#include "devtools/analyzer.h"
#include "devtools/tokenizer.h"

namespace pinpoint {
namespace devtools {

/** Ids of the invariant checks, in table order. */
const std::vector<std::string> &invariant_check_ids();

/**
 * Runs every invariant check whose scope covers @p path (repo
 * relative) over the file's masked @p tokens, appending findings to
 * @p out.
 */
void invariant_pass(const std::string &path,
                    const std::vector<Token> &tokens,
                    std::vector<Violation> &out);

}  // namespace devtools
}  // namespace pinpoint
