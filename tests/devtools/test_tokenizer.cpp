/**
 * @file
 * Scanner/tokenizer coverage for the lexical shapes a regex-based
 * tool gets wrong: raw strings, line continuations, comment markers
 * inside strings, and the three #include forms.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "devtools/tokenizer.h"

namespace pinpoint {
namespace devtools {
namespace {

TEST(Tokenizer, MasksPlainStringsAndComments)
{
    const ScanResult scan = scan_source(
        "int a = 1; // trailing words\n"
        "const char *s = \"quoted text\";\n"
        "/* block */ int b = 2;\n");
    EXPECT_EQ(scan.masked.find("trailing"), std::string::npos);
    EXPECT_EQ(scan.masked.find("quoted"), std::string::npos);
    EXPECT_EQ(scan.masked.find("block"), std::string::npos);
    EXPECT_NE(scan.masked.find("int a = 1;"), std::string::npos);
    EXPECT_NE(scan.masked.find("int b = 2;"), std::string::npos);
}

TEST(Tokenizer, RawStringWithCustomDelimiter)
{
    // The inner )" must not end the raw string; the delimiter is
    // xx. A naive scanner would resume inside the literal.
    const ScanResult scan = scan_source(
        "const char *s = R\"xx(body with \" and )\" inside)xx\";\n"
        "int after = 1;\n");
    EXPECT_EQ(scan.masked.find("body"), std::string::npos);
    EXPECT_EQ(scan.masked.find("inside"), std::string::npos);
    EXPECT_NE(scan.masked.find("int after = 1;"),
              std::string::npos);
}

TEST(Tokenizer, RawStringEncodingPrefixes)
{
    const ScanResult scan = scan_source(
        "auto a = u8R\"(hidden8)\";\n"
        "auto b = LR\"(hiddenL)\";\n"
        "int R = 3;  // plain identifier R is not a prefix\n");
    EXPECT_EQ(scan.masked.find("hidden8"), std::string::npos);
    EXPECT_EQ(scan.masked.find("hiddenL"), std::string::npos);
    EXPECT_NE(scan.masked.find("int R = 3;"), std::string::npos);
}

TEST(Tokenizer, LineContinuationExtendsLineComment)
{
    // The backslash-newline glues the second line into the
    // comment; `int hidden` must be masked.
    const ScanResult scan = scan_source(
        "// comment with continuation \\\n"
        "int hidden = 1;\n"
        "int visible = 2;\n");
    EXPECT_EQ(scan.masked.find("hidden"), std::string::npos);
    EXPECT_NE(scan.masked.find("int visible = 2;"),
              std::string::npos);
    // Line numbers survive: `visible` is still on line 3.
    const std::vector<Token> tokens = tokenize(scan.masked);
    for (const Token &t : tokens) {
        if (t.text == "visible") {
            EXPECT_EQ(t.line, 3);
        }
    }
}

TEST(Tokenizer, BlockCommentOpenerInsideString)
{
    // The /* inside the literal must not start a comment.
    const ScanResult scan = scan_source(
        "const char *s = \"not /* a comment\";\n"
        "int live = 1;\n");
    EXPECT_NE(scan.masked.find("int live = 1;"),
              std::string::npos);
}

TEST(Tokenizer, DigitSeparatorIsNotACharLiteral)
{
    const ScanResult scan =
        scan_source("long big = 1'000'000;\nint next = 2;\n");
    const std::vector<Token> tokens = tokenize(scan.masked);
    bool found = false;
    for (const Token &t : tokens)
        if (t.kind == TokenKind::kNumber &&
            t.text == "1'000'000")
            found = true;
    EXPECT_TRUE(found);
    EXPECT_NE(scan.masked.find("int next = 2;"),
              std::string::npos);
}

TEST(Tokenizer, CharLiteralIsMasked)
{
    const ScanResult scan =
        scan_source("char c = 'x';\nchar d = '\\'';\nint z = 1;\n");
    EXPECT_EQ(scan.masked.find('x'), std::string::npos);
    EXPECT_NE(scan.masked.find("int z = 1;"), std::string::npos);
}

TEST(Tokenizer, IncludeFormsAreClassified)
{
    const ScanResult scan = scan_source(
        "#include <vector>\n"
        "#include \"core/types.h\"\n"
        "#define HDR \"core/shape.h\"\n"
        "#include HDR\n");
    ASSERT_EQ(scan.includes.size(), 3u);
    EXPECT_EQ(scan.includes[0].kind,
              IncludeDirective::Kind::kAngle);
    EXPECT_EQ(scan.includes[0].path, "vector");
    EXPECT_EQ(scan.includes[0].line, 1);
    EXPECT_EQ(scan.includes[1].kind,
              IncludeDirective::Kind::kQuote);
    EXPECT_EQ(scan.includes[1].path, "core/types.h");
    // The computed form is surfaced, never silently dropped.
    EXPECT_EQ(scan.includes[2].kind,
              IncludeDirective::Kind::kComputed);
    EXPECT_EQ(scan.includes[2].path, "HDR");
    EXPECT_EQ(scan.includes[2].line, 4);
    ASSERT_EQ(scan.defines.size(), 1u);
    EXPECT_EQ(scan.defines[0].name, "HDR");
}

TEST(Tokenizer, IncludePathsDoNotLeakIntoMaskedText)
{
    const ScanResult scan =
        scan_source("#include \"core/types.h\"\nint x = 1;\n");
    // The directive line is masked so "types" never counts as a
    // referenced identifier.
    EXPECT_EQ(scan.masked.find("types"), std::string::npos);
}

TEST(Tokenizer, PragmaOnceDetected)
{
    EXPECT_TRUE(scan_source("#pragma once\nint x;\n")
                    .has_pragma_once);
    EXPECT_FALSE(scan_source("#pragma pack(1)\nint x;\n")
                     .has_pragma_once);
    EXPECT_FALSE(scan_source("int x;\n").has_pragma_once);
}

TEST(Tokenizer, SuppressionCommentsParsed)
{
    const ScanResult scan = scan_source(
        "int a = v[0];  // analyze: allow(positional-strategy-index)\n"
        "// analyze: allow(unused-include, pragma-once)\n"
        "int b = 0;\n"
        "int c = 0;  // lint: allow(raw-number-parse)\n");
    // The retired `lint:` spelling is prose, not a suppression.
    ASSERT_EQ(scan.suppressions.size(), 2u);
    EXPECT_FALSE(scan.suppressions[0].standalone);
    ASSERT_EQ(scan.suppressions[0].ids.size(), 1u);
    EXPECT_EQ(scan.suppressions[0].ids[0],
              "positional-strategy-index");
    EXPECT_TRUE(scan.suppressions[1].standalone);
    ASSERT_EQ(scan.suppressions[1].ids.size(), 2u);
    EXPECT_EQ(scan.suppressions[1].ids[1], "pragma-once");
}

TEST(Tokenizer, ProseAllowMentionIsNotASuppression)
{
    // Doc comments talking about the syntax (ids outside [\w,-])
    // must not register as suppressions.
    const ScanResult scan = scan_source(
        "// write analyze: allow(<check>) to suppress\n"
        "// or analyze: allow(...) for analyzer checks\n"
        "int x = 0;\n");
    EXPECT_TRUE(scan.suppressions.empty());
}

TEST(Tokenizer, HashInsideDirectiveBodyIsNotADirective)
{
    const ScanResult scan =
        scan_source("#define CAT(a, b) a##b\nint x = 0;\n");
    ASSERT_EQ(scan.defines.size(), 1u);
    EXPECT_EQ(scan.defines[0].name, "CAT");
    EXPECT_TRUE(scan.includes.empty());
}

TEST(Tokenizer, SplitLinesKeepsLineNumbersStable)
{
    const std::vector<std::string> lines =
        split_lines("a\nb\n\nc");
    ASSERT_EQ(lines.size(), 4u);
    EXPECT_EQ(lines[0], "a");
    EXPECT_EQ(lines[2], "");
    EXPECT_EQ(lines[3], "c");
}

}  // namespace
}  // namespace devtools
}  // namespace pinpoint
