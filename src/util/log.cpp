#include "util/log.hpp"

#include <atomic>
#include <cstdio>
#include <mutex>

namespace sa {

namespace {
std::atomic<LogLevel> g_level{LogLevel::Warn};
std::mutex g_sink_mutex; // serialises sink calls and set_sink()
Log::Sink g_sink;        // guarded by g_sink_mutex; empty -> stderr

void default_sink(LogLevel level, const std::string& message) {
    std::fprintf(stderr, "[%s] %s\n", Log::level_name(level), message.c_str());
}
} // namespace

void Log::set_level(LogLevel level) noexcept {
    g_level.store(level, std::memory_order_relaxed);
}

LogLevel Log::level() noexcept { return g_level.load(std::memory_order_relaxed); }

void Log::set_sink(Sink sink) {
    std::lock_guard<std::mutex> lock(g_sink_mutex);
    g_sink = std::move(sink);
}

void Log::write(LogLevel level, const std::string& message) {
    if (static_cast<int>(level) < static_cast<int>(Log::level())) {
        return;
    }
    std::lock_guard<std::mutex> lock(g_sink_mutex);
    if (g_sink) {
        g_sink(level, message);
    } else {
        default_sink(level, message);
    }
}

const char* Log::level_name(LogLevel level) noexcept {
    switch (level) {
    case LogLevel::Trace: return "TRACE";
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info: return "INFO";
    case LogLevel::Warn: return "WARN";
    case LogLevel::Error: return "ERROR";
    case LogLevel::Off: return "OFF";
    }
    return "?";
}

} // namespace sa
