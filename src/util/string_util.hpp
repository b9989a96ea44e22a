#pragma once
// Small string helpers shared by the parsers and report printers.

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>

namespace sa {

/// Transparent hash for std::string-keyed unordered containers: lookups by
/// std::string_view or const char* hash directly, without materialising a
/// temporary std::string. Pair with std::equal_to<> (also transparent):
///
///   std::unordered_map<std::string, V, StringHash, std::equal_to<>> map;
///   map.find(std::string_view{...});   // no allocation
struct StringHash {
    using is_transparent = void;

    [[nodiscard]] std::size_t operator()(std::string_view text) const noexcept {
        return std::hash<std::string_view>{}(text);
    }
};

bool starts_with(std::string_view text, std::string_view prefix);

std::string to_lower(std::string_view text);

/// printf-style helper returning std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Render a duration in nanoseconds with an adaptive unit ("12.3us", "4.5ms").
std::string human_duration_ns(long long ns);

/// Escape `text` for embedding in a JSON string literal (no quotes added):
/// `"`, `\`, `\n`, `\r` and `\t` get their short escapes, other control
/// bytes `\u00XX`; everything else, UTF-8 included, passes through.
std::string json_escape(std::string_view text);

} // namespace sa
