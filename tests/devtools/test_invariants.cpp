/**
 * @file
 * Token-level coverage of the repo-invariant checks for the shapes
 * the fixture trees do not pin: matches across line breaks, masked
 * prose and literals, look-alike calls, and path scoping.
 */
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "devtools/analyzer.h"
#include "devtools/invariants.h"
#include "devtools/tokenizer.h"

namespace pinpoint {
namespace devtools {
namespace {

using Hits = std::vector<std::pair<int, std::string>>;

/** (line, check) of every finding in @p source scanned as @p path. */
Hits
hits(const std::string &path, const std::string &source)
{
    std::vector<Violation> out;
    invariant_pass(path, tokenize(scan_source(source).masked), out);
    Hits result;
    for (const Violation &v : out)
        result.emplace_back(v.line, v.check);
    return result;
}

TEST(Invariants, CommentsAndLiteralsNeverTrigger)
{
    EXPECT_TRUE(hits("src/sim/x.cc",
                     "// rand() and time(nullptr) in prose\n"
                     "const char *s = \"std::stoi(x)\";\n"
                     "const char *r = R\"(Timeline())\";\n")
                    .empty());
}

TEST(Invariants, MatchesAcrossLineBreaks)
{
    const Hits expected = {{1, "timeline-construction"}};
    EXPECT_EQ(hits("src/analysis/x.cc", "auto t = Timeline\n"
                                        "    (view);\n"),
              expected);
}

TEST(Invariants, ClassDefinitionIsNotConstruction)
{
    EXPECT_TRUE(hits("src/analysis/x.cc",
                     "class Timeline {\n};\nclass Timeline;\n")
                    .empty());
}

TEST(Invariants, WallClockButNotMemberTime)
{
    const Hits expected = {{3, "nondeterminism-source"},
                           {4, "nondeterminism-source"}};
    EXPECT_EQ(hits("src/sim/x.cc", "TimeNs time(std::size_t i) const;\n"
                                   "auto a = view.time();\n"
                                   "auto b = std::time(&now);\n"
                                   "auto c = time(nullptr);\n"),
              expected);
    // tests/ may seed from the clock; only src/ is covered.
    EXPECT_TRUE(hits("tests/sim/x.cc", "auto c = time(nullptr);\n")
                    .empty());
}

TEST(Invariants, QualifiedAndBareNumberParses)
{
    const Hits expected = {{1, "raw-number-parse"},
                           {3, "raw-number-parse"}};
    EXPECT_EQ(hits("src/cli/x.cc", "int a = std::stoi(s);\n"
                                   "using std::stol;\n"
                                   "long b = stol(s);\n"
                                   "bool c = parse_int(s, a);\n"),
              expected);
    EXPECT_TRUE(hits("src/core/parse.cc", "long b = std::stol(s);\n")
                    .empty());
}

TEST(Invariants, UnorderedIterationOnlyInExportPaths)
{
    const std::string source =
        "std::unordered_map<std::string, std::vector<int>> rows;\n"
        "for (const auto &kv : rows) {}\n"
        "for (const auto &kv : self.rows) {}\n"
        "auto it = rows.cbegin();\n"
        "for (int i = 0; i < 3; ++i) {}\n";
    const Hits expected = {{2, "unordered-export-iteration"},
                           {3, "unordered-export-iteration"},
                           {4, "unordered-export-iteration"}};
    EXPECT_EQ(hits("src/sweep/export_rows.cc", source), expected);
    EXPECT_TRUE(hits("src/sim/rows.cc", source).empty());
}

TEST(Invariants, PositionalIndexOnlyOnStrategyArrays)
{
    const Hits expected = {{5, "positional-strategy-index"},
                           {5, "positional-strategy-index"}};
    EXPECT_EQ(
        hits("bench/x.cpp",
             "const auto &reports = planner.plan_all(\n"
             "    view);\n"
             "std::array<relief::ReliefReport, kNumStrategies> mine{};\n"
             "std::vector<int> other(4);\n"
             "int a = reports[2].x + mine[0].x + other[1];\n"),
        expected);
}

TEST(Invariants, ResultFieldsOnlyWhenEmitted)
{
    const std::string source =
        "void f(std::ostream &os, const sweep::ScenarioResult &r) {\n"
        "    os << r.status << r.scenario.id();\n"
        "    const auto peak = r.peak_total_bytes;\n"
        "    std::printf(\"%zu\\n\", r.peak_total_bytes);\n"
        "}\n";
    const Hits expected = {{4, "result-field-serialization"}};
    EXPECT_EQ(hits("src/cli/x.cc", source), expected);
    EXPECT_TRUE(hits("src/sweep/export.cc", source).empty());
}

TEST(Invariants, ServingDriverScope)
{
    const std::string source = "op.phase = OpPhase::kBackward;\n";
    const Hits expected = {{1, "inference-plan-purity"}};
    EXPECT_EQ(hits("src/runtime/request_stream.cc", source), expected);
    EXPECT_TRUE(hits("src/runtime/plan_builder.cc", source).empty());
}

TEST(Invariants, BlockIdHashScope)
{
    const std::string source =
        "std::unordered_map<BlockId, TimeNs> last;\n"
        "std::map<pinpoint::TensorId,\n"
        "         Block> bound;\n"
        "FlatTable<BlockId, std::uint32_t> chain_of;\n"
        "std::map<DevPtr, Node *> segments;\n"
        "FlatTable<std::uint64_t, Span> span;\n"
        "std::vector<BlockId> live;\n";
    const Hits expected = {{1, "block-id-hash"},
                           {2, "block-id-hash"},
                           {4, "block-id-hash"}};
    EXPECT_EQ(hits("src/analysis/x.cc", source), expected);
    EXPECT_EQ(hits("src/runtime/engine.h", source), expected);
    // The freeze's one table, and layers outside the per-block ones.
    EXPECT_TRUE(hits("src/analysis/trace_view.cc", source).empty());
    EXPECT_TRUE(hits("src/runtime/plan_builder.cc", source).empty());
    EXPECT_TRUE(hits("src/trace/slice.cc", source).empty());
}

}  // namespace
}  // namespace devtools
}  // namespace pinpoint
