#pragma once
// Strongly-typed simulation time. The whole library uses integer nanoseconds;
// this avoids floating-point drift in event ordering and makes CAN bit timing
// exact at every standard bitrate.

#include <compare>
#include <cstdint>
#include <string>

namespace sa::sim {

class Duration;

/// Absolute simulation time (ns since simulation start).
class Time {
public:
    constexpr Time() = default;
    constexpr explicit Time(std::int64_t ns) : ns_(ns) {}

    [[nodiscard]] constexpr std::int64_t ns() const noexcept { return ns_; }
    [[nodiscard]] constexpr double s() const noexcept { return static_cast<double>(ns_) / 1e9; }

    static constexpr Time zero() noexcept { return Time(0); }
    static constexpr Time max() noexcept { return Time(INT64_MAX); }

    constexpr auto operator<=>(const Time&) const = default;

    [[nodiscard]] std::string str() const;

private:
    std::int64_t ns_ = 0;
};

/// Relative time span (ns). Negative spans are allowed for arithmetic but
/// cannot be used to schedule events.
class Duration {
public:
    constexpr Duration() = default;
    constexpr explicit Duration(std::int64_t ns) : ns_(ns) {}

    static constexpr Duration ns(std::int64_t v) noexcept { return Duration(v); }
    static constexpr Duration us(std::int64_t v) noexcept { return Duration(v * 1'000); }
    static constexpr Duration ms(std::int64_t v) noexcept { return Duration(v * 1'000'000); }
    static constexpr Duration sec(std::int64_t v) noexcept { return Duration(v * 1'000'000'000); }
    static constexpr Duration from_seconds(double s) noexcept {
        return Duration(static_cast<std::int64_t>(s * 1e9));
    }
    static constexpr Duration zero() noexcept { return Duration(0); }

    [[nodiscard]] constexpr std::int64_t count_ns() const noexcept { return ns_; }
    [[nodiscard]] constexpr double to_us() const noexcept { return static_cast<double>(ns_) / 1e3; }
    [[nodiscard]] constexpr double to_ms() const noexcept { return static_cast<double>(ns_) / 1e6; }
    [[nodiscard]] constexpr double to_seconds() const noexcept {
        return static_cast<double>(ns_) / 1e9;
    }

    constexpr auto operator<=>(const Duration&) const = default;

    [[nodiscard]] std::string str() const;

private:
    std::int64_t ns_ = 0;
};

constexpr Time operator+(Time t, Duration d) noexcept { return Time(t.ns() + d.count_ns()); }
constexpr Time operator-(Time t, Duration d) noexcept { return Time(t.ns() - d.count_ns()); }
constexpr Duration operator-(Time a, Time b) noexcept { return Duration(a.ns() - b.ns()); }
constexpr Duration operator+(Duration a, Duration b) noexcept {
    return Duration(a.count_ns() + b.count_ns());
}
constexpr Duration operator-(Duration a, Duration b) noexcept {
    return Duration(a.count_ns() - b.count_ns());
}
constexpr Duration operator*(Duration d, std::int64_t k) noexcept {
    return Duration(d.count_ns() * k);
}

namespace literals {
constexpr Duration operator""_ns(unsigned long long v) { return Duration::ns(static_cast<std::int64_t>(v)); }
constexpr Duration operator""_us(unsigned long long v) { return Duration::us(static_cast<std::int64_t>(v)); }
constexpr Duration operator""_ms(unsigned long long v) { return Duration::ms(static_cast<std::int64_t>(v)); }
constexpr Duration operator""_s(unsigned long long v) { return Duration::sec(static_cast<std::int64_t>(v)); }
} // namespace literals

} // namespace sa::sim
