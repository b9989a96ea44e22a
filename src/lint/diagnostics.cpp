#include "lint/diagnostics.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/string_util.hpp"

namespace sa::lint {

const char* to_string(Severity severity) noexcept {
    switch (severity) {
    case Severity::Info: return "info";
    case Severity::Warning: return "warning";
    case Severity::Error: return "error";
    }
    return "?";
}

const char* to_string(Layer layer) noexcept {
    switch (layer) {
    case Layer::Text: return "text";
    case Layer::Skills: return "skills";
    case Layer::Model: return "model";
    case Layer::Scenario: return "scenario";
    case Layer::Learn: return "learn";
    case Layer::Campaign: return "campaign";
    }
    return "?";
}

std::string Finding::str() const {
    return format("%s[%s] %s: %s", to_string(severity), rule.c_str(),
                  subject.c_str(), message.c_str());
}

const std::vector<RuleInfo>& rule_catalogue() {
    static const std::vector<RuleInfo> kCatalogue = {
        // --- text layer -----------------------------------------------------
        {"TXT001", Severity::Error, Layer::Text,
         "input text does not parse as a spec or contract"},
        // --- skills layer ---------------------------------------------------
        {"SKL001", Severity::Error, Layer::Skills,
         "skill-graph spec has a dependency cycle"},
        {"SKL002", Severity::Warning, Layer::Skills,
         "spec node unreachable from the root skill"},
        {"SKL003", Severity::Error, Layer::Skills,
         "weighted_mean aggregation missing weights for some children"},
        {"SKL004", Severity::Error, Layer::Skills,
         "spec declaration references an unknown node or non-edge"},
        {"SKL005", Severity::Error, Layer::Skills,
         "spec node absent from the capability catalogue or kind mismatch"},
        {"SKL006", Severity::Error, Layer::Skills,
         "alarm binding names an unknown capability or missing quality"},
        {"SKL007", Severity::Info, Layer::Skills,
         "dead capability: no spec node or alarm binding uses it"},
        // --- model layer ----------------------------------------------------
        {"MDL001", Severity::Error, Layer::Model,
         "required service has no provider"},
        {"MDL002", Severity::Info, Layer::Model,
         "provided service is never required"},
        {"MDL003", Severity::Error, Layer::Model,
         "duplicate task priority on one ECU (breaks CpuWcrtAnalysis)"},
        {"MDL004", Severity::Error, Layer::Model,
         "duplicate CAN id on one bus or duplicate message name"},
        {"MDL005", Severity::Error, Layer::Model,
         "reference to an ECU or bus the platform does not declare"},
        {"MDL006", Severity::Error, Layer::Model,
         "chain stage names an unknown task, message or resource"},
        {"MDL007", Severity::Warning, Layer::Model,
         "redundant_with names an unknown component"},
        {"MDL008", Severity::Warning, Layer::Model,
         "service has multiple providers (provider_of is ambiguous)"},
        // --- scenario layer -------------------------------------------------
        {"SCN001", Severity::Warning, Layer::Scenario,
         "gateway route shadowed by an earlier id/mask on the same bus pair"},
        {"SCN002", Severity::Error, Layer::Scenario,
         "bus-to-bus routes form a forwarding cycle"},
        {"SCN003", Severity::Error, Layer::Scenario,
         "cross-domain link with zero forward latency (zero lookahead)"},
        {"SCN004", Severity::Error, Layer::Scenario,
         "domain pin out of range for the declared domain count"},
        {"SCN005", Severity::Error, Layer::Scenario,
         "monitor or route references an undeclared ECU, bus or vehicle"},
        {"SCN006", Severity::Warning, Layer::Scenario,
         "heartbeat watches a source nothing publishes"},
        {"SCN007", Severity::Warning, Layer::Scenario,
         "sensor bound to a node that is not a data source or sink of the "
         "vehicle's graph"},
        // --- mesh (scenario-layer V2V topology) -----------------------------
        {"MSH001", Severity::Error, Layer::Scenario,
         "V2V endpoint unreachable under the declared radio ranges"},
        {"MSH002", Severity::Error, Layer::Scenario,
         "mesh beacon TTL smaller than the endpoint's hop eccentricity"},
        // --- learn layer ----------------------------------------------------
        {"LRN001", Severity::Error, Layer::Learn,
         "learned monitor tracks zero metrics after auto-resolution"},
        {"LRN002", Severity::Error, Layer::Learn,
         "learned-monitor warm-up exceeds the declared scenario duration"},
        // --- campaign layer -------------------------------------------------
        {"CMP001", Severity::Error, Layer::Campaign,
         "campaign names an unknown scenario template"},
        {"CMP002", Severity::Error, Layer::Campaign,
         "campaign matrix is empty (seed range lo > hi)"},
        {"CMP003", Severity::Warning, Layer::Campaign,
         "campaign matrix is very large (> 100000 cells)"},
        {"CMP004", Severity::Error, Layer::Campaign,
         "referenced skill-graph spec file is missing or rejected by lint"},
        {"CMP005", Severity::Error, Layer::Campaign,
         "representative cell fails scenario lint"},
        {"CMP006", Severity::Info, Layer::Campaign,
         "matrix contains harness-probe faults (misuse/crash)"},
    };
    return kCatalogue;
}

const RuleInfo* find_rule(std::string_view id) {
    for (const RuleInfo& info : rule_catalogue()) {
        if (std::string_view{info.id} == id) {
            return &info;
        }
    }
    return nullptr;
}

void LintReport::add(std::string_view rule, std::string subject,
                     std::string message) {
    const RuleInfo* info = find_rule(rule);
    SA_ASSERT(info != nullptr, "lint finding uses an ID missing from the catalogue");
    findings_.push_back(Finding{std::string{rule}, info->severity, info->layer,
                                std::move(subject), std::move(message)});
}

void LintReport::merge(const LintReport& other) {
    findings_.insert(findings_.end(), other.findings_.begin(),
                     other.findings_.end());
}

std::size_t LintReport::count(Severity severity) const {
    return static_cast<std::size_t>(
        std::count_if(findings_.begin(), findings_.end(),
                      [severity](const Finding& finding) {
                          return finding.severity == severity;
                      }));
}

const Finding* LintReport::first(std::string_view rule) const {
    for (const Finding& finding : findings_) {
        if (finding.rule == rule) {
            return &finding;
        }
    }
    return nullptr;
}

bool LintReport::has(std::string_view rule) const { return first(rule) != nullptr; }

std::string LintReport::str() const {
    std::string out;
    for (const Finding& finding : findings_) {
        out += finding.str();
        out += '\n';
    }
    out += format("%zu error(s), %zu warning(s), %zu info(s)",
                  count(Severity::Error), count(Severity::Warning),
                  count(Severity::Info));
    return out;
}

std::string LintReport::json() const {
    std::string out = format(
        "{\"version\":1,\"errors\":%zu,\"warnings\":%zu,\"infos\":%zu,"
        "\"findings\":[",
        count(Severity::Error), count(Severity::Warning), count(Severity::Info));
    bool follower = false;
    for (const Finding& finding : findings_) {
        if (follower) {
            out += ',';
        }
        follower = true;
        out += format(
            "{\"rule\":\"%s\",\"severity\":\"%s\",\"layer\":\"%s\","
            "\"subject\":\"%s\",\"message\":\"%s\"}",
            finding.rule.c_str(), to_string(finding.severity),
            to_string(finding.layer), json_escape(finding.subject).c_str(),
            json_escape(finding.message).c_str());
    }
    out += "]}";
    return out;
}

} // namespace sa::lint
