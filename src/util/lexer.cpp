#include "util/lexer.hpp"

#include <algorithm>
#include <charconv>
#include <limits>

namespace sa::util {

ParseError::ParseError(int line, const std::string& message)
    : std::runtime_error(message), line_(line) {}

namespace {

// ASCII only, independent of the C locale (std::isalpha and friends are not).
bool is_digit(char c) noexcept { return c >= '0' && c <= '9'; }
bool is_ident_start(char c) noexcept {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
bool is_ident_char(char c) noexcept { return is_ident_start(c) || is_digit(c); }
bool is_space(char c) noexcept {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f';
}

/// Decimal digits with at most one '.', and at least one digit.
bool is_decimal(std::string_view text) noexcept {
    bool digit = false;
    bool point = false;
    for (const char c : text) {
        if (is_digit(c)) {
            digit = true;
        } else if (c == '.' && !point) {
            point = true;
        } else {
            return false;
        }
    }
    return digit;
}

/// The whole of `text` as a decimal unsigned integer; false on a malformed
/// or overflowing value.
bool to_uint(std::string_view text, std::uint64_t& value) noexcept {
    const char* end = text.data() + text.size();
    const auto result = std::from_chars(text.data(), end, value);
    return result.ec == std::errc{} && result.ptr == end;
}

/// The whole of `text` as a decimal real (see is_decimal); false on a
/// malformed or out-of-range value.
bool to_real(std::string_view text, double& value) noexcept {
    const char* end = text.data() + text.size();
    return is_decimal(text) &&
           std::from_chars(text.data(), end, value, std::chars_format::fixed).ec ==
               std::errc{};
}

std::string quoted(std::string_view text) { return "'" + std::string(text) + "'"; }

} // namespace

bool is_identifier(std::string_view text) noexcept {
    if (text.empty() || !is_ident_start(text.front())) {
        return false;
    }
    for (const char c : text) {
        if (!is_ident_char(c)) {
            return false;
        }
    }
    return true;
}

Lexer::Lexer(std::string_view text) : text_(text) { advance(); }

void Lexer::advance() {
    while (pos_ < text_.size()) {
        const char c = text_[pos_];
        if (c == '/' && at(pos_ + 1) == '/') {
            pos_ = std::min(text_.find('\n', pos_), text_.size());
        } else if (is_space(c)) {
            if (c == '\n') {
                ++line_;
            }
            ++pos_;
        } else {
            break;
        }
    }
    const std::size_t start = pos_;
    current_.line = line_;
    if (pos_ >= text_.size()) {
        current_.kind = TokKind::End;
        current_.text = {};
        return;
    }
    const char c = text_[pos_];
    if (is_ident_start(c)) {
        current_.kind = TokKind::Ident;
        while (is_ident_char(at(pos_))) {
            ++pos_;
        }
    } else if (is_digit(c) || (c == '.' && is_digit(at(pos_ + 1)))) {
        current_.kind = TokKind::Number;
        ++pos_;
        while (is_ident_char(at(pos_)) || (at(pos_) == '.' && is_digit(at(pos_ + 1)))) {
            ++pos_;
        }
    } else if (c == '"') {
        const std::size_t close = text_.find_first_of("\"\n", pos_ + 1);
        if (close == std::string_view::npos || text_[close] != '"') {
            throw ParseError(line_, "unterminated string literal");
        }
        current_.kind = TokKind::String;
        current_.text = text_.substr(pos_ + 1, close - pos_ - 1);
        pos_ = close + 1;
        return;
    } else {
        current_.kind = TokKind::Punct;
        const char next = at(pos_ + 1);
        pos_ += ((c == '-' && next == '>') || (c == '.' && next == '.')) ? 2 : 1;
    }
    current_.text = text_.substr(start, pos_ - start);
}

Token Lexer::take() {
    const Token token = current_;
    advance();
    return token;
}

bool Lexer::accept(std::string_view text) {
    if ((current_.kind == TokKind::Punct || current_.kind == TokKind::Ident) &&
        current_.text == text) {
        advance();
        return true;
    }
    return false;
}

void Lexer::expect(std::string_view text) {
    if (!accept(text)) {
        fail_expected(quoted(text));
    }
}

std::string Lexer::take_ident(std::string_view what) {
    if (current_.kind != TokKind::Ident) {
        fail_expected(what);
    }
    return std::string(take().text);
}

std::string Lexer::take_string(std::string_view what) {
    if (current_.kind != TokKind::String) {
        fail_expected(what);
    }
    return std::string(take().text);
}

std::uint64_t Lexer::take_uint(std::string_view what, std::uint64_t max) {
    std::string_view digits = current_.text;
    const bool hex = digits.size() > 2 && digits.starts_with("0x");
    if (hex) {
        digits.remove_prefix(2);
    }
    std::uint64_t value = 0;
    const char* end = digits.data() + digits.size();
    const auto result = std::from_chars(digits.data(), end, value, hex ? 16 : 10);
    if (current_.kind != TokKind::Number || result.ptr != end ||
        result.ec == std::errc::invalid_argument) {
        fail_expected(what);
    }
    if (result.ec == std::errc::result_out_of_range || value > max) {
        fail_expected(std::string(what) + " no greater than " + std::to_string(max));
    }
    advance();
    return value;
}

double Lexer::take_real(std::string_view what) {
    double value = 0.0;
    if (current_.kind != TokKind::Number || !to_real(current_.text, value)) {
        fail_expected(what);
    }
    advance();
    return value;
}

std::int64_t Lexer::take_duration_ns(std::string_view what) {
    const std::string_view text = current_.text;
    const std::size_t split = text.find_first_not_of("0123456789.");
    const std::string_view number = text.substr(0, split);
    const std::string_view unit =
        split == std::string_view::npos ? std::string_view{} : text.substr(split);
    std::int64_t scale = 0;
    if (unit == "ns") {
        scale = 1;
    } else if (unit == "us") {
        scale = 1'000;
    } else if (unit == "ms") {
        scale = 1'000'000;
    } else if (unit == "s") {
        scale = 1'000'000'000;
    }
    if (current_.kind != TokKind::Number || scale == 0 || !is_decimal(number)) {
        fail_expected(std::string(what) + " such as 400ms (units ns, us, ms, s)");
    }
    if (number.find('.') == std::string_view::npos) {
        constexpr std::int64_t kMaxNs = std::numeric_limits<std::int64_t>::max();
        std::uint64_t whole = 0;
        if (to_uint(number, whole) && whole <= static_cast<std::uint64_t>(kMaxNs / scale)) {
            advance();
            return static_cast<std::int64_t>(whole) * scale;
        }
    } else {
        // A fraction is scaled in double (2.5ms = 2.5 * 1e6 ns) and truncated.
        double value = 0.0;
        if (to_real(number, value) && value * static_cast<double>(scale) < 0x1p63) {
            advance();
            return static_cast<std::int64_t>(value * static_cast<double>(scale));
        }
    }
    fail_expected(std::string(what) + " that fits in int64 nanoseconds");
}

void Lexer::fail(const std::string& message) const {
    throw ParseError(current_.line, message);
}

void Lexer::fail_expected(std::string_view what) const {
    fail("expected " + std::string(what) + ", got " +
         (current_.kind == TokKind::End ? std::string("end of input")
                                        : quoted(current_.text)));
}

} // namespace sa::util
