#pragma once
// The one tokenizer and the one parse error behind every text grammar:
// contracts (model/contract_parser), skill-graph specs
// (skills/skill_graph_spec), campaigns, cells and corpus entries
// (campaign/). Every grammar lexes with the same rules; there are no
// per-grammar options.
//
// Lexical rules:
//   - Whitespace separates tokens; `//` starts a comment to end of line.
//   - Ident:  [A-Za-z_][A-Za-z0-9_]*
//   - Number: starts with a digit, or with '.' followed by a digit, and
//             continues over [A-Za-z0-9_], and over '.' only when a digit
//             follows. So `0x1A0`, `10ms`, `2.5ms` and `.5` are each one
//             token, and `1..16` lexes as Number `..` Number.
//   - String: "..." on one line, with no escapes. The token text excludes
//             the quotes.
//   - Punct:  `->` and `..`, otherwise one character.
//
// A Number token means nothing until a checked taker reads it: take_uint,
// take_real and take_duration_ns each check the whole token and its range,
// so no grammar converts numbers on its own.
//
// Error contract: every malformed input throws ParseError. what() is the
// bare message (no line prefix); line() is the 1-based line of the
// offending token, or 0 when the error concerns the input as a whole.
// Printers that show the line format it themselves, exactly once.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace sa::util {

/// The error every text grammar throws on malformed input.
class ParseError : public std::runtime_error {
public:
    ParseError(int line, const std::string& message);
    /// 1-based line of the offending token; 0 means the whole input.
    [[nodiscard]] int line() const noexcept { return line_; }

private:
    int line_;
};

/// True when `text` is exactly one Ident token (`[A-Za-z_][A-Za-z0-9_]*`).
[[nodiscard]] bool is_identifier(std::string_view text) noexcept;

enum class TokKind { Ident, Number, String, Punct, End };

/// One token of the lexed text.
struct Token {
    TokKind kind = TokKind::End;
    std::string_view text; ///< view into the lexed text
    int line = 0;
};

/// Tokenizer over one text with the rules above, one token of lookahead,
/// and the checked takers every grammar reads its values through.
class Lexer {
public:
    /// Lex `text`, which must outlive the lexer and every token it returns.
    explicit Lexer(std::string_view text);

    [[nodiscard]] const Token& peek() const noexcept { return current_; }
    [[nodiscard]] bool at_end() const noexcept {
        return current_.kind == TokKind::End;
    }
    Token take();

    /// Take the next token if it is the punctuation or keyword `text`.
    bool accept(std::string_view text);
    /// Take the punctuation or keyword `text`, or fail.
    void expect(std::string_view text);

    // Checked takers: each fails with "expected <what>, got '<token>'"
    // unless the next token has the right kind and form.
    std::string take_ident(std::string_view what);
    std::string take_string(std::string_view what);
    /// A decimal or `0x` hex integer, the whole token, no greater than `max`.
    std::uint64_t take_uint(std::string_view what, std::uint64_t max);
    /// Decimal digits with at most one '.'.
    double take_real(std::string_view what);
    /// `<real><ns|us|ms|s>` in nanoseconds, the real as for take_real():
    /// exact for integers, and rejected when it does not fit in int64.
    std::int64_t take_duration_ns(std::string_view what);

    /// Throw ParseError at the line of the next token.
    [[noreturn]] void fail(const std::string& message) const;

private:
    void advance();
    [[nodiscard]] char at(std::size_t pos) const noexcept {
        return pos < text_.size() ? text_[pos] : '\0';
    }
    [[noreturn]] void fail_expected(std::string_view what) const;

    std::string_view text_;
    std::size_t pos_ = 0;
    int line_ = 1;
    Token current_;
};

} // namespace sa::util
