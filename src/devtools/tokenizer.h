/**
 * @file
 * Lexical front end of the devtools static-analysis library: a
 * comment/string-stripping scanner for C++ translation units plus a
 * flat identifier/punctuation tokenizer over the stripped text.
 *
 * The scanner understands the lexical shapes a regex cannot: raw
 * string literals with custom delimiters, line-continuation
 * backslashes inside `//` comments and preprocessor directives,
 * block-comment openers inside string literals, digit separators
 * vs. char literals, and the three `#include` forms (`<...>`,
 * `"..."`, and computed `#include MACRO` — the last is surfaced,
 * never silently skipped). Every analyzer pass reads the scanner's
 * output instead of the raw bytes, so line numbers always match the
 * file and prose never triggers a check.
 */
#pragma once

#include <string>
#include <vector>

namespace pinpoint {
namespace devtools {

/** One `#include` directive found by the scanner. */
struct IncludeDirective {
    enum class Kind {
        kAngle,     ///< #include <vector>
        kQuote,     ///< #include "core/types.h"
        kComputed,  ///< #include MACRO_EXPANSION — not resolvable
    };

    int line = 0;        ///< 1-based line of the directive.
    Kind kind = Kind::kQuote;
    std::string path;    ///< Target text (path or macro spelling).
};

/** One `#define` directive: the macro name is a declared symbol. */
struct DefineDirective {
    int line = 0;
    std::string name;
};

/**
 * One `analyze: allow(<ids>)` suppression comment. The scanner
 * records every such comment; the suppression-audit pass decides
 * which are stale.
 */
struct SuppressionComment {
    int line = 0;
    bool standalone = false;  ///< Comment is alone on its line.
    std::vector<std::string> ids;  ///< Check ids named.
};

/**
 * Scanner output. `masked` is the input with comments, string
 * literals, char literals, and whole `#include` directive lines
 * replaced by spaces — newlines preserved, so offsets map to the
 * same line numbers as the file. Directives and suppression
 * comments are captured before masking.
 */
struct ScanResult {
    std::string masked;
    std::vector<IncludeDirective> includes;
    std::vector<DefineDirective> defines;
    std::vector<SuppressionComment> suppressions;
    bool has_pragma_once = false;
};

/** Scans @p text (one source file) into a ScanResult. */
ScanResult scan_source(const std::string &text);

/** Token kinds the flat tokenizer distinguishes. */
enum class TokenKind {
    kIdentifier,  ///< [A-Za-z_][A-Za-z0-9_]*
    kNumber,      ///< pp-number (digits, also 1'000, 0x1F, 1.5e3)
    kPunct,       ///< one punctuation character
};

/** One token of the masked text. */
struct Token {
    TokenKind kind = TokenKind::kPunct;
    std::string text;
    int line = 0;
};

/** Splits masked text into identifier / number / punct tokens. */
std::vector<Token> tokenize(const std::string &masked);

/** Splits text into lines (no trailing '\n'; "" yields one line). */
std::vector<std::string> split_lines(const std::string &text);

}  // namespace devtools
}  // namespace pinpoint

