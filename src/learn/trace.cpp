#include "learn/trace.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/string_util.hpp"

namespace sa::learn {

namespace {

constexpr std::string_view kHeader = "# sa-trace v1";
constexpr std::string_view kMetaPrefix = "# meta ";

} // namespace

void Trace::set_meta(const std::string& key, std::string value) {
    for (auto& [k, v] : meta) {
        if (k == key) {
            v = std::move(value);
            return;
        }
    }
    meta.emplace_back(key, std::move(value));
}

const std::string* Trace::find_meta(std::string_view key) const {
    for (const auto& [k, v] : meta) {
        if (k == key) {
            return &v;
        }
    }
    return nullptr;
}

std::int64_t Trace::meta_int(std::string_view key, std::int64_t fallback) const {
    const std::string* value = find_meta(key);
    if (value == nullptr) {
        return fallback;
    }
    char* end = nullptr;
    const long long parsed = std::strtoll(value->c_str(), &end, 10);
    return (end == value->c_str() || *end != '\0') ? fallback : parsed;
}

std::string Trace::str() const {
    std::string out;
    out.reserve(32 + meta.size() * 24 + samples.size() * 48);
    out.append(kHeader);
    out.push_back('\n');
    for (const auto& [key, value] : meta) {
        out.append(kMetaPrefix);
        out.append(key);
        out.push_back('=');
        out.append(value);
        out.push_back('\n');
    }
    for (const auto& sample : samples) {
        // %a prints the exact binary double (hexfloat) — values round-trip
        // bit-for-bit through parse() with no decimal rounding in between.
        out.append(format("%lld %s %a\n",
                          static_cast<long long>(sample.at_ns),
                          sample.name.c_str(), sample.value));
    }
    return out;
}

Trace Trace::parse(const std::string& text) {
    Trace trace;
    std::istringstream in(text);
    std::string line;
    bool saw_header = false;
    int line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty()) {
            continue;
        }
        if (!saw_header) {
            if (line != kHeader) {
                throw util::ParseError(line_no, "expected '" + std::string(kHeader) + "'");
            }
            saw_header = true;
            continue;
        }
        if (line.starts_with(kMetaPrefix)) {
            const std::string entry = line.substr(kMetaPrefix.size());
            const std::size_t eq = entry.find('=');
            if (eq == std::string::npos) {
                throw util::ParseError(line_no, "malformed meta entry");
            }
            trace.meta.emplace_back(entry.substr(0, eq), entry.substr(eq + 1));
            continue;
        }
        if (line.front() == '#') {
            continue; // stray comment — tolerated, not produced by str()
        }
        TraceSample sample;
        const char* cursor = line.c_str();
        char* end = nullptr;
        errno = 0;
        sample.at_ns = std::strtoll(cursor, &end, 10);
        if (end == cursor || *end != ' ' || errno == ERANGE) {
            throw util::ParseError(line_no, "malformed timestamp");
        }
        cursor = end + 1;
        const char* name_end = cursor;
        while (*name_end != '\0' && *name_end != ' ') {
            ++name_end;
        }
        if (name_end == cursor || *name_end != ' ') {
            throw util::ParseError(line_no, "malformed metric name");
        }
        sample.name.assign(cursor, name_end);
        cursor = name_end + 1;
        sample.value = std::strtod(cursor, &end); // strtod accepts %a hexfloats
        if (end == cursor || *end != '\0') {
            throw util::ParseError(line_no, "malformed value");
        }
        trace.samples.push_back(std::move(sample));
    }
    if (!saw_header) {
        throw util::ParseError(0, "empty input: missing sa-trace header");
    }
    return trace;
}

void Trace::save(const std::string& path) const {
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        throw std::runtime_error("cannot write " + path);
    }
    out << str();
}

Trace Trace::load(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw std::runtime_error("cannot read " + path);
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return parse(buffer.str());
}

TraceRecorder::TraceRecorder(monitor::MonitorManager& manager,
                             std::vector<std::string> filter)
    : manager_(manager), filter_(std::move(filter)) {
    tap_id_ = manager_.metric_ingested().subscribe(
        [this](const monitor::Metric& metric) {
            if (!filter_.empty() &&
                std::find(filter_.begin(), filter_.end(), metric.name) ==
                    filter_.end()) {
                return;
            }
            trace_.samples.push_back(
                TraceSample{metric.at.ns(), metric.name, metric.value});
        });
}

TraceRecorder::~TraceRecorder() { manager_.metric_ingested().unsubscribe(tap_id_); }

} // namespace sa::learn
