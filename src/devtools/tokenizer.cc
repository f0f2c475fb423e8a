#include "devtools/tokenizer.h"

#include <cctype>
#include <cstddef>

namespace pinpoint {
namespace devtools {
namespace {

bool
is_ident_char(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) != 0 ||
           c == '_';
}

bool
is_ident_start(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) != 0 ||
           c == '_';
}

/**
 * Incremental scanner. One pass over the bytes; emits the masked
 * text and records directives/suppressions as it goes. The masked
 * output has exactly the input's newlines, so a reported line N is
 * line N of the file.
 */
class Scanner
{
  public:
    explicit Scanner(const std::string &text) : text_(text)
    {
        out_.reserve(text.size());
    }

    ScanResult run();

  private:
    char peek(std::size_t ahead = 0) const
    {
        return pos_ + ahead < text_.size() ? text_[pos_ + ahead]
                                           : '\0';
    }
    bool done() const { return pos_ >= text_.size(); }

    /** Emits @p c verbatim and advances. */
    void emit();
    /** Masks the current char (newline kept, else space). */
    void blank();
    /** Masks chars until past the closing quote of a string. */
    void blank_string(char quote);
    /** Masks a raw string literal starting at R" (pos_ at R). */
    void blank_raw_string();
    /** Consumes a // comment (with continuations); returns text. */
    std::string take_line_comment();
    /** Consumes a block comment; returns its text. */
    std::string take_block_comment();
    /** True when `"` at pos_ closes a raw-string prefix like R".*/
    bool at_raw_string_start() const;
    /** True when `'` at pos_ is a digit separator / UDL tick. */
    bool tick_is_separator() const;
    /** Handles a preprocessor directive with pos_ at '#'. */
    void directive();
    /** Skips spaces/tabs and backslash-newline pairs, masking. */
    void skip_directive_ws();
    /** Reads an identifier (masking it), or "" if none. */
    std::string take_directive_word();
    void record_suppressions(const std::string &comment, int line,
                             bool standalone);

    const std::string &text_;
    std::string out_;
    ScanResult result_;
    std::size_t pos_ = 0;
    int line_ = 1;
    /// No code yet on this line (directives must start a line).
    bool at_line_start_ = true;
    /// Some non-blank Normal-state char was emitted on this line.
    bool line_has_code_ = false;
};

void
Scanner::emit()
{
    char c = text_[pos_++];
    out_.push_back(c);
    if (c == '\n') {
        ++line_;
        at_line_start_ = true;
        line_has_code_ = false;
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
        at_line_start_ = false;
        line_has_code_ = true;
    }
}

void
Scanner::blank()
{
    char c = text_[pos_++];
    if (c == '\n') {
        out_.push_back('\n');
        ++line_;
        at_line_start_ = true;
        line_has_code_ = false;
    } else {
        out_.push_back(' ');
    }
}

void
Scanner::blank_string(char quote)
{
    blank();  // opening quote
    while (!done()) {
        if (peek() == '\\' && pos_ + 1 < text_.size()) {
            blank();
            blank();
            continue;
        }
        if (peek() == quote) {
            blank();
            return;
        }
        if (peek() == '\n')
            return;  // unterminated: stop at end of line
        blank();
    }
}

void
Scanner::blank_raw_string()
{
    blank();  // R
    blank();  // "
    std::string delim;
    while (!done() && peek() != '(' && peek() != '\n' &&
           delim.size() < 16) {
        delim.push_back(peek());
        blank();
    }
    if (done() || peek() != '(')
        return;  // malformed raw string; give up quietly
    blank();     // (
    const std::string close = ")" + delim + "\"";
    while (!done()) {
        if (text_.compare(pos_, close.size(), close) == 0) {
            for (std::size_t k = 0; k < close.size(); ++k)
                blank();
            return;
        }
        blank();
    }
}

std::string
Scanner::take_line_comment()
{
    std::string comment;
    while (!done()) {
        if (peek() == '\n') {
            // A backslash immediately before the newline continues
            // the comment onto the next line.
            if (!comment.empty() && comment.back() == '\\') {
                blank();  // newline (kept as newline by blank())
                continue;
            }
            return comment;
        }
        comment.push_back(peek());
        blank();
    }
    return comment;
}

std::string
Scanner::take_block_comment()
{
    std::string comment;
    blank();  // '/'
    blank();  // '*'
    while (!done()) {
        if (peek() == '*' && peek(1) == '/') {
            blank();
            blank();
            return comment;
        }
        comment.push_back(peek());
        blank();
    }
    return comment;
}

bool
Scanner::at_raw_string_start() const
{
    // pos_ is at a '"'. Raw strings are R"..., optionally with an
    // encoding prefix: u8R, uR, UR, LR. The prefix must not be the
    // tail of a longer identifier (xR"..." is not a raw string).
    if (pos_ == 0 || text_[pos_ - 1] != 'R')
        return false;
    std::size_t r = pos_ - 1;
    if (r == 0)
        return true;
    std::size_t p = r - 1;
    // Possible one/two-char encoding prefix before the R.
    std::size_t prefix_start = r;
    if (text_[p] == 'u' || text_[p] == 'U' || text_[p] == 'L') {
        prefix_start = p;
    } else if (text_[p] == '8' && p > 0 && text_[p - 1] == 'u') {
        prefix_start = p - 1;
    }
    return prefix_start == 0 ||
           !is_ident_char(text_[prefix_start - 1]);
}

bool
Scanner::tick_is_separator() const
{
    // `'` after an identifier/number char is a digit separator
    // (1'000'000) or a UDL tick — except for the char-literal
    // prefixes u / u8 / U / L standing alone (u'x').
    if (pos_ == 0 || !is_ident_char(text_[pos_ - 1]))
        return false;
    std::size_t end = pos_;
    std::size_t start = end;
    while (start > 0 && is_ident_char(text_[start - 1]))
        --start;
    const std::string word = text_.substr(start, end - start);
    return !(word == "u" || word == "u8" || word == "U" ||
             word == "L");
}

void
Scanner::skip_directive_ws()
{
    while (!done()) {
        if (peek() == ' ' || peek() == '\t') {
            blank();
        } else if (peek() == '\\' && peek(1) == '\n') {
            blank();
            blank();
        } else {
            return;
        }
    }
}

std::string
Scanner::take_directive_word()
{
    skip_directive_ws();
    std::string word;
    while (!done() && is_ident_char(peek())) {
        word.push_back(peek());
        blank();
    }
    return word;
}

void
Scanner::directive()
{
    const int start_line = line_;
    at_line_start_ = false;  // a second '#' on this line is text
    blank();                 // '#'
    const std::string name = take_directive_word();
    if (name == "include") {
        IncludeDirective inc;
        inc.line = start_line;
        skip_directive_ws();
        if (peek() == '<') {
            inc.kind = IncludeDirective::Kind::kAngle;
            blank();
            while (!done() && peek() != '>' && peek() != '\n') {
                inc.path.push_back(peek());
                blank();
            }
            if (peek() == '>')
                blank();
        } else if (peek() == '"') {
            inc.kind = IncludeDirective::Kind::kQuote;
            blank();
            while (!done() && peek() != '"' && peek() != '\n') {
                inc.path.push_back(peek());
                blank();
            }
            if (peek() == '"')
                blank();
        } else {
            // Computed include: #include SOME_MACRO. The target
            // cannot be resolved statically; record the spelling so
            // the analyzer can report it instead of skipping it.
            inc.kind = IncludeDirective::Kind::kComputed;
            while (!done() && peek() != '\n') {
                if (peek() == '\\' && peek(1) == '\n') {
                    blank();
                    blank();
                    continue;
                }
                if (peek() == '/' && peek(1) == '/')
                    break;
                if (peek() == '/' && peek(1) == '*')
                    break;
                inc.path.push_back(peek());
                blank();
            }
            while (!inc.path.empty() &&
                   (inc.path.back() == ' ' ||
                    inc.path.back() == '\t'))
                inc.path.pop_back();
        }
        result_.includes.push_back(inc);
        return;
    }
    if (name == "define") {
        DefineDirective def;
        def.line = start_line;
        def.name = take_directive_word();
        if (!def.name.empty())
            result_.defines.push_back(def);
        return;  // body scans as ordinary text from here
    }
    if (name == "pragma") {
        // Peek the next word without consuming non-word text.
        std::size_t save = pos_;
        std::string save_out = out_;
        int save_line = line_;
        const std::string what = take_directive_word();
        if (what == "once") {
            result_.has_pragma_once = true;
        } else {
            pos_ = save;
            out_ = save_out;
            line_ = save_line;
        }
        return;
    }
}

void
Scanner::record_suppressions(const std::string &comment, int line,
                             bool standalone)
{
    // Matches "analyze: allow(<id>, <id>)". Hand-rolled: std::regex is
    // the only alternative and this runs on every comment of every
    // file.
    std::size_t pos = 0;
    while (pos < comment.size()) {
        std::size_t at = comment.find("allow(", pos);
        if (at == std::string::npos)
            return;
        std::size_t close = comment.find(')', at);
        if (close == std::string::npos)
            return;
        // Walk back over "<tool> :" before "allow(".
        std::size_t back = at;
        while (back > 0 && (comment[back - 1] == ' ' ||
                            comment[back - 1] == '\t'))
            --back;
        std::string tool;
        if (back > 0 && comment[back - 1] == ':') {
            std::size_t te = back - 1;
            while (te > 0 && (comment[te - 1] == ' ' ||
                              comment[te - 1] == '\t'))
                --te;
            std::size_t ts = te;
            while (ts > 0 && is_ident_char(comment[ts - 1]))
                --ts;
            tool = comment.substr(ts, te - ts);
        }
        // The id list is [\w,\s-]+ — anything else (e.g. prose like
        // "allow(<check>)" in a doc comment) is not a suppression.
        bool well_formed = close > at + 6;
        for (std::size_t k = at + 6; k < close; ++k) {
            const char c = comment[k];
            if (!is_ident_char(c) && c != '-' && c != ',' &&
                c != ' ' && c != '\t')
                well_formed = false;
        }
        if (well_formed && tool == "analyze") {
            SuppressionComment sup;
            sup.line = line;
            sup.standalone = standalone;
            std::string id;
            for (std::size_t k = at + 6; k <= close; ++k) {
                char c = k < close ? comment[k] : ',';
                if (c == ',' || k == close) {
                    while (!id.empty() && id.back() == ' ')
                        id.pop_back();
                    while (!id.empty() && id.front() == ' ')
                        id.erase(id.begin());
                    if (!id.empty())
                        sup.ids.push_back(id);
                    id.clear();
                } else {
                    id.push_back(c);
                }
            }
            if (!sup.ids.empty())
                result_.suppressions.push_back(sup);
        }
        pos = close + 1;
    }
}

ScanResult
Scanner::run()
{
    while (!done()) {
        const char c = peek();
        if (c == '/' && peek(1) == '/') {
            const int line = line_;
            const bool standalone = !line_has_code_;
            blank();
            blank();
            const std::string comment = take_line_comment();
            record_suppressions(comment, line, standalone);
        } else if (c == '/' && peek(1) == '*') {
            const int line = line_;
            const std::string comment = take_block_comment();
            record_suppressions(comment, line, false);
        } else if (c == '"') {
            if (at_raw_string_start()) {
                // The R (and any encoding prefix) was already
                // emitted; leaving it in the masked text is
                // harmless (a bare identifier).
                --pos_;
                out_.pop_back();
                blank_raw_string();
            } else {
                blank_string('"');
            }
        } else if (c == '\'' && !tick_is_separator()) {
            blank_string('\'');
        } else if (c == '#' && at_line_start_) {
            directive();
        } else {
            emit();
        }
    }
    result_.masked = std::move(out_);
    return std::move(result_);
}

}  // namespace

ScanResult
scan_source(const std::string &text)
{
    return Scanner(text).run();
}

std::vector<Token>
tokenize(const std::string &masked)
{
    std::vector<Token> tokens;
    int line = 1;
    std::size_t i = 0;
    const std::size_t n = masked.size();
    while (i < n) {
        const char c = masked[i];
        if (c == '\n') {
            ++line;
            ++i;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c)) != 0) {
            ++i;
            continue;
        }
        Token tok;
        tok.line = line;
        if (is_ident_start(c)) {
            tok.kind = TokenKind::kIdentifier;
            while (i < n && is_ident_char(masked[i]))
                tok.text.push_back(masked[i++]);
        } else if (std::isdigit(static_cast<unsigned char>(c)) !=
                   0) {
            tok.kind = TokenKind::kNumber;
            // pp-number: digits, idents, '.', and digit-separator
            // ticks; good enough to keep 1'000.5e3 one token.
            while (i < n &&
                   (is_ident_char(masked[i]) || masked[i] == '.' ||
                    masked[i] == '\''))
                tok.text.push_back(masked[i++]);
        } else {
            tok.kind = TokenKind::kPunct;
            tok.text.push_back(c);
            ++i;
        }
        tokens.push_back(std::move(tok));
    }
    return tokens;
}

std::vector<std::string>
split_lines(const std::string &text)
{
    std::vector<std::string> lines;
    std::string cur;
    for (char c : text) {
        if (c == '\n') {
            lines.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    lines.push_back(cur);
    return lines;
}

}  // namespace devtools
}  // namespace pinpoint
