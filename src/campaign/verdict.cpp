#include "campaign/verdict.hpp"

#include <utility>

#include "util/string_util.hpp"

namespace sa::campaign {
namespace {

std::string json_unescape(const std::string& text) {
    std::string out;
    out.reserve(text.size());
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] != '\\' || i + 1 >= text.size()) {
            out += text[i];
            continue;
        }
        ++i;
        switch (text[i]) {
        case 'n':
            out += '\n';
            break;
        case 'r':
            out += '\r';
            break;
        case 't':
            out += '\t';
            break;
        case 'u':
            if (i + 4 < text.size()) {
                const int code = std::stoi(text.substr(i + 1, 4), nullptr, 16);
                out += static_cast<char>(code);
                i += 4;
            }
            break;
        default:
            out += text[i];
        }
    }
    return out;
}

std::string string_list_json(const std::vector<std::string>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i > 0) {
            out += ",";
        }
        out += "\"" + json_escape(values[i]) + "\"";
    }
    out += "]";
    return out;
}

} // namespace

CellVerdict CellVerdict::crash(int signal) {
    CellVerdict verdict;
    verdict.status = "crash";
    verdict.signal = signal;
    verdict.reason = format("worker terminated by signal %d", signal);
    return verdict;
}

CellVerdict CellVerdict::worker_error(std::string reason) {
    CellVerdict verdict;
    verdict.status = "crash";
    verdict.signal = 0;
    verdict.reason = std::move(reason);
    return verdict;
}

std::string CellVerdict::json() const {
    std::string out = "{\"version\":1";
    out += ",\"status\":\"" + json_escape(status) + "\"";
    out += ",\"reason\":\"" + json_escape(reason) + "\"";
    out += format(",\"signal\":%d", signal);
    out += format(",\"at_ns\":%lld", static_cast<long long>(at_ns));
    out += ",\"vehicles\":[";
    for (std::size_t i = 0; i < vehicles.size(); ++i) {
        const VehicleVerdict& v = vehicles[i];
        if (i > 0) {
            out += ",";
        }
        out += "{\"name\":\"" + json_escape(v.name) + "\"";
        out += format(",\"jobs\":%llu", static_cast<unsigned long long>(v.jobs));
        out += format(",\"misses\":%llu",
                      static_cast<unsigned long long>(v.misses));
        out += format(",\"anomalies\":%llu",
                      static_cast<unsigned long long>(v.anomalies));
        out += format(",\"handled\":%llu",
                      static_cast<unsigned long long>(v.problems_handled));
        out += format(",\"resolved\":%llu",
                      static_cast<unsigned long long>(v.problems_resolved));
        out += format(",\"follow\":%.6f", v.follow_level);
        out += format(",\"gw_fwd\":%llu",
                      static_cast<unsigned long long>(v.gw_forwarded));
        out += format(",\"gw_drop\":%llu}",
                      static_cast<unsigned long long>(v.gw_dropped));
    }
    out += "]";
    out += ",\"platoon\":{\"formed\":";
    out += platoon_formed ? "true" : "false";
    out += ",\"members\":" + string_list_json(members);
    out += ",\"detached\":" + string_list_json(detached);
    out += ",\"maneuvers\":" + string_list_json(maneuvers);
    out += "}";
    out += format(",\"latency\":{\"count\":%llu",
                  static_cast<unsigned long long>(latency.count));
    out += format(",\"p50_ns\":%lld", static_cast<long long>(latency.p50_ns));
    out += format(",\"p90_ns\":%lld", static_cast<long long>(latency.p90_ns));
    out += format(",\"p99_ns\":%lld", static_cast<long long>(latency.p99_ns));
    out += format(",\"max_ns\":%lld}", static_cast<long long>(latency.max_ns));
    std::uint64_t total_jobs = 0;
    std::uint64_t total_misses = 0;
    std::uint64_t total_anomalies = 0;
    std::uint64_t total_handled = 0;
    std::uint64_t total_resolved = 0;
    for (const VehicleVerdict& v : vehicles) {
        total_jobs += v.jobs;
        total_misses += v.misses;
        total_anomalies += v.anomalies;
        total_handled += v.problems_handled;
        total_resolved += v.problems_resolved;
    }
    out += format(",\"totals\":{\"total_jobs\":%llu",
                  static_cast<unsigned long long>(total_jobs));
    out += format(",\"total_misses\":%llu",
                  static_cast<unsigned long long>(total_misses));
    out += format(",\"total_anomalies\":%llu",
                  static_cast<unsigned long long>(total_anomalies));
    out += format(",\"total_handled\":%llu",
                  static_cast<unsigned long long>(total_handled));
    out += format(",\"total_resolved\":%llu",
                  static_cast<unsigned long long>(total_resolved));
    out += format(",\"total_maneuvers\":%llu",
                  static_cast<unsigned long long>(maneuvers.size()));
    out += format(",\"total_detached\":%llu}",
                  static_cast<unsigned long long>(detached.size()));
    out += "}";
    return out;
}

std::string failure_signature(const std::string& status, const std::string& reason,
                              int signal) {
    if (status == "crash") {
        return format("crash signal=%d", signal);
    }
    return status + " reason=" + reason;
}

std::string fingerprint_hex(std::uint64_t fingerprint) {
    return format("%016llx", static_cast<unsigned long long>(fingerprint));
}

std::string json_string_field(const std::string& json, const std::string& key) {
    const std::string needle = "\"" + key + "\":\"";
    const std::size_t start = json.find(needle);
    if (start == std::string::npos) {
        return {};
    }
    std::size_t pos = start + needle.size();
    std::string raw;
    while (pos < json.size() && json[pos] != '"') {
        if (json[pos] == '\\' && pos + 1 < json.size()) {
            raw += json[pos];
            ++pos;
        }
        raw += json[pos];
        ++pos;
    }
    return json_unescape(raw);
}

std::int64_t json_int_field(const std::string& json, const std::string& key,
                            std::int64_t fallback) {
    const std::string needle = "\"" + key + "\":";
    const std::size_t start = json.find(needle);
    if (start == std::string::npos) {
        return fallback;
    }
    std::size_t pos = start + needle.size();
    bool negative = false;
    if (pos < json.size() && json[pos] == '-') {
        negative = true;
        ++pos;
    }
    std::int64_t value = 0;
    bool any = false;
    while (pos < json.size() && json[pos] >= '0' && json[pos] <= '9') {
        value = value * 10 + (json[pos] - '0');
        ++pos;
        any = true;
    }
    if (!any) {
        return fallback;
    }
    return negative ? -value : value;
}

} // namespace sa::campaign
