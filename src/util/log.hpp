#pragma once
// Minimal leveled logger. Output is line-oriented and intended for example
// programs and debugging; the library itself logs sparingly (decisions of the
// MCC and the cross-layer coordinator, anomaly reports).

#include <functional>
#include <sstream>
#include <string>

namespace sa {

enum class LogLevel { Trace = 0, Debug = 1, Info = 2, Warn = 3, Error = 4, Off = 5 };

/// Global logging configuration, safe to use from any thread: the domain
/// workers of a sharded simulation log concurrently. The level is a relaxed
/// atomic, so a line filtered out by it takes no lock. Emitted lines reach
/// the sink under one mutex, so sink calls never overlap; a sink must
/// therefore not log itself.
class Log {
public:
    using Sink = std::function<void(LogLevel, const std::string&)>;

    static void set_level(LogLevel level) noexcept;
    static LogLevel level() noexcept;

    /// Replace the output sink (default: stderr). Pass nullptr to restore default.
    static void set_sink(Sink sink);

    static void write(LogLevel level, const std::string& message);

    static const char* level_name(LogLevel level) noexcept;
};

namespace detail {
class LogLine {
public:
    explicit LogLine(LogLevel level) : level_(level) {}
    LogLine(const LogLine&) = delete;
    LogLine& operator=(const LogLine&) = delete;
    ~LogLine() { Log::write(level_, os_.str()); }

    template <typename T>
    LogLine& operator<<(const T& value) {
        os_ << value;
        return *this;
    }

private:
    LogLevel level_;
    std::ostringstream os_;
};
} // namespace detail

} // namespace sa

#define SA_LOG(sa_log_lvl)                                                            \
    if (static_cast<int>(sa_log_lvl) < static_cast<int>(::sa::Log::level())) {        \
    } else                                                                            \
        ::sa::detail::LogLine(sa_log_lvl)

#define SA_LOG_TRACE SA_LOG(::sa::LogLevel::Trace)
#define SA_LOG_DEBUG SA_LOG(::sa::LogLevel::Debug)
#define SA_LOG_INFO SA_LOG(::sa::LogLevel::Info)
#define SA_LOG_WARN SA_LOG(::sa::LogLevel::Warn)
#define SA_LOG_ERROR SA_LOG(::sa::LogLevel::Error)
