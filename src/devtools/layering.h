/**
 * @file
 * Parser for tools/layering.txt — the one committed source of
 * truth for the architecture's layer DAG. The analyzer enforces
 * it and renders the ARCHITECTURE.md "Layering" section from it
 * (check_layering_doc in devtools/analyzer.h); nothing else
 * encodes the layer order.
 *
 * Format (one declaration per line, '#' starts a comment):
 *
 *     layer <name>: <allowed-dep> <allowed-dep> ...
 *     umbrella <repo-relative-header-path>
 *
 * Layers are declared from lowest to highest; every allowed
 * dependency must name an already-declared layer, so the table is
 * a DAG by construction — an upward reference is a parse error,
 * not a runtime discovery. `umbrella` marks forwarding headers the
 * IWYU-lite pass treats as re-exporting everything they include.
 */
#pragma once

#include <set>
#include <string>
#include <vector>

namespace pinpoint {
namespace devtools {

/** One declared layer: a src/ subdirectory and its allowed deps. */
struct Layer {
    std::string name;
    std::vector<std::string> allowed;
    int line = 0;  ///< Declaration line in layering.txt.
};

/** The parsed layer table. */
class LayerTable
{
  public:
    /**
     * Parses layering.txt text. @throws pinpoint::Error naming the
     * line on malformed declarations, duplicate layers, or a
     * dependency on a not-yet-declared layer.
     */
    static LayerTable parse(const std::string &text);

    const std::vector<Layer> &layers() const { return layers_; }
    const std::set<std::string> &umbrellas() const
    {
        return umbrellas_;
    }

    bool has_layer(const std::string &name) const;
    const Layer *find(const std::string &name) const;

    /** True when @p from may directly include @p to. */
    bool allows(const std::string &from,
                const std::string &to) const;

    /** True when @p to is declared after @p from (an upward dep).*/
    bool is_upward(const std::string &from,
                   const std::string &to) const;

    /**
     * Layer of a repo-relative path: "src/<d>/..." maps to "<d>";
     * tools/, bench/, and examples/ files are application code
     * above every layer and map to "" (unrestricted).
     */
    static std::string layer_of(const std::string &path);

  private:
    std::vector<Layer> layers_;
    std::set<std::string> umbrellas_;
};

}  // namespace devtools
}  // namespace pinpoint

