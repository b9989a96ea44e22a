#include "util/string_util.hpp"

#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <cmath>

namespace sa {

bool starts_with(std::string_view text, std::string_view prefix) {
    return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

std::string to_lower(std::string_view text) {
    std::string out(text);
    for (char& c : out) {
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    return out;
}

std::string format(const char* fmt, ...) {
    va_list args;
    va_start(args, fmt);
    va_list copy;
    va_copy(copy, args);
    const int needed = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    std::string out;
    if (needed > 0) {
        out.resize(static_cast<std::size_t>(needed));
        std::vsnprintf(out.data(), out.size() + 1, fmt, args);
    }
    va_end(args);
    return out;
}

std::string human_duration_ns(long long ns) {
    const double v = static_cast<double>(ns);
    if (std::llabs(ns) >= 1'000'000'000LL) {
        return format("%.3fs", v / 1e9);
    }
    if (std::llabs(ns) >= 1'000'000LL) {
        return format("%.3fms", v / 1e6);
    }
    if (std::llabs(ns) >= 1'000LL) {
        return format("%.3fus", v / 1e3);
    }
    return format("%lldns", ns);
}

std::string json_escape(std::string_view text) {
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                out += format("\\u%04x", static_cast<unsigned>(c));
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace sa
