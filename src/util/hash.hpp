#pragma once
// The library's non-cryptographic hashes, one definition of each. They stay
// inline: FlatPtrMap64's probe runs on every event-queue push and the
// medium's loss draw on every V2V delivery.

#include <cstdint>
#include <string_view>

namespace sa::util {

/// The splitmix64 finalizer alone: a full-avalanche mix of one word.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/// One splitmix64 step: the golden-ratio increment, then the finalizer.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
    return mix64(x + 0x9E3779B97F4A7C15ULL);
}

/// FNV-1a, 64-bit.
[[nodiscard]] constexpr std::uint64_t fnv1a64(std::string_view text) noexcept {
    std::uint64_t hash = 0xCBF29CE484222325ULL;
    for (const char c : text) {
        hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
    }
    return hash;
}

} // namespace sa::util
