#include "probe.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <stdexcept>
#include <string>

#include <sched.h>
#include <sys/resource.h>

namespace perfbench {

double wall_now() noexcept {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double cpu_now() noexcept {
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

double seconds(const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

void append_escaped(std::string& out, std::string_view text) {
    out += '"';
    for (const char c : text) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

std::string number(double value) {
    if (!std::isfinite(value)) {
        return "null";
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

} // namespace

Usage usage_now() noexcept {
    rusage self{};
    rusage children{};
    ::getrusage(RUSAGE_SELF, &self);
    ::getrusage(RUSAGE_CHILDREN, &children);
    Usage usage;
    usage.self_cpu_s = seconds(self.ru_utime) + seconds(self.ru_stime);
    usage.children_cpu_s = seconds(children.ru_utime) + seconds(children.ru_stime);
    usage.context_switches = self.ru_nvcsw + self.ru_nivcsw;
    return usage;
}

std::uint64_t peak_rss_kb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stoull(line.substr(6)); // "VmHWM:   12345 kB"
        }
    }
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

namespace {

void pin(const std::vector<int>& cpus) {
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int cpu : cpus) {
        CPU_SET(cpu, &set);
    }
    ::sched_setaffinity(0, sizeof set, &set);
}

} // namespace

CpuRotation::CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof set, &set) == 0) {
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &set)) {
                cpus_.push_back(cpu);
            }
        }
    }
}

CpuRotation::~CpuRotation() {
    if (!cpus_.empty()) {
        pin(cpus_);
    }
}

void CpuRotation::next() {
    if (!cpus_.empty()) {
        pin({cpus_[next_++ % cpus_.size()]});
    }
}

void Json::key(std::string_view name) {
    if (body_.size() > 1) {
        body_ += ',';
    }
    append_escaped(body_, name);
    body_ += ':';
}

Json& Json::num(std::string_view name, double value) {
    key(name);
    body_ += number(value);
    return *this;
}

Json& Json::count(std::string_view name, std::uint64_t value) {
    key(name);
    body_ += std::to_string(value);
    return *this;
}

Json& Json::str(std::string_view name, std::string_view value) {
    key(name);
    append_escaped(body_, value);
    return *this;
}

Json& Json::nums(std::string_view name, const std::vector<double>& values) {
    std::vector<std::string> items;
    items.reserve(values.size());
    for (const double value : values) {
        items.push_back(number(value));
    }
    return raw(name, json_array(items));
}

Json& Json::counts(std::string_view name, const std::vector<std::uint64_t>& values) {
    std::vector<std::string> items;
    items.reserve(values.size());
    for (const std::uint64_t value : values) {
        items.push_back(std::to_string(value));
    }
    return raw(name, json_array(items));
}

Json& Json::strs(std::string_view name, const std::vector<std::string>& values) {
    std::vector<std::string> items;
    items.reserve(values.size());
    for (const std::string& value : values) {
        std::string item;
        append_escaped(item, value);
        items.push_back(std::move(item));
    }
    return raw(name, json_array(items));
}

Json& Json::raw(std::string_view name, std::string_view json) {
    key(name);
    body_ += json;
    return *this;
}

std::string json_array(const std::vector<std::string>& items) {
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0) {
            out += ',';
        }
        out += items[i];
    }
    return out + "]";
}

void Spans::add(std::string_view name, double start, double end, std::uint64_t op) {
    if (enabled_) {
        spans_.push_back({std::string(name), start, end, op});
    }
}

bool Spans::write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
        return false;
    }
    // Complete ("X") events on one thread track; Perfetto nests them by
    // time, so a repetition's build/run spans appear under its op span.
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& span = spans_[i];
        std::string name;
        append_escaped(name, span.name);
        out << (i > 0 ? ",\n" : "\n") << "{\"name\":" << name
            << ",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
            << number((span.start - origin_) * 1e6)
            << ",\"dur\":" << number((span.end - span.start) * 1e6)
            << ",\"args\":{\"op\":" << span.op << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

std::uint64_t mix(std::uint64_t value) noexcept {
    value += 0x9E3779B97F4A7C15ULL;
    value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9ULL;
    value = (value ^ (value >> 27)) * 0x94D049BB133111EBULL;
    return value ^ (value >> 31);
}

} // namespace perfbench
