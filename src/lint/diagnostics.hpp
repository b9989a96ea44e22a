#pragma once
// sa::lint diagnostic engine. Every finding carries a *stable* rule ID
// (SKL/MDL/SCN/TXT + 3 digits — IDs are append-only, never renumbered so CI
// suppressions and docs stay valid), a severity, the model layer it belongs
// to, a model location ("spec acc / skill select_target") and human text.
// A LintReport renders one line per finding (str()) or a schema-stable JSON
// document (json()) for tools/sa_lint and CI artifacts.
//
// The catalogue itself lives here (rule_catalogue()); the rule
// implementations live per layer in skills_rules / model_rules /
// scenario_rules. docs/LINT.md documents every rule with an example finding
// and the fix.

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace sa::lint {

enum class Severity {
    Info,    ///< stylistic / informational; never blocks
    Warning, ///< suspicious but runnable; never blocks by itself
    Error,   ///< structurally broken; analyses would crash or lie
};

const char* to_string(Severity severity) noexcept;

/// The model layer a rule inspects.
enum class Layer {
    Text,     ///< raw spec/contract text (parse failures)
    Skills,   ///< SkillGraphSpec / CapabilityRegistry / alarm bindings
    Model,    ///< contracts, function model, mapping
    Scenario, ///< builder topology: gateways, domains, monitors
    Learn,    ///< learned anomaly models: tracked metrics, warm-up budgets
    Campaign, ///< campaign matrices: axes, seed ranges, referenced specs
};

const char* to_string(Layer layer) noexcept;

/// One diagnostic. `subject` is the model location (what the finding is
/// about), `message` the human explanation.
struct Finding {
    std::string rule; ///< stable ID, e.g. "SKL001"
    Severity severity = Severity::Error;
    Layer layer = Layer::Model;
    std::string subject;
    std::string message;

    /// "error[SKL001] spec acc / skill select_target: ..." — one line.
    [[nodiscard]] std::string str() const;
};

/// Static metadata for one rule in the catalogue.
struct RuleInfo {
    const char* id;
    Severity severity = Severity::Error;
    Layer layer = Layer::Model;
    const char* summary;
};

/// All registered rules, grouped by layer. IDs are stable across releases.
[[nodiscard]] const std::vector<RuleInfo>& rule_catalogue();

/// Catalogue lookup; nullptr when `id` names no rule.
[[nodiscard]] const RuleInfo* find_rule(std::string_view id);

/// An ordered collection of findings plus counters and renderers.
class LintReport {
public:
    /// Add a finding for catalogue rule `rule` (severity and layer are taken
    /// from the catalogue; unknown IDs are a library bug and assert).
    void add(std::string_view rule, std::string subject, std::string message);

    /// Append all of `other`'s findings (order preserved).
    void merge(const LintReport& other);

    [[nodiscard]] const std::vector<Finding>& findings() const noexcept {
        return findings_;
    }
    [[nodiscard]] std::size_t count(Severity severity) const;
    [[nodiscard]] std::size_t error_count() const { return count(Severity::Error); }
    [[nodiscard]] std::size_t warning_count() const {
        return count(Severity::Warning);
    }

    /// No findings at all (not even Info).
    [[nodiscard]] bool clean() const noexcept { return findings_.empty(); }
    /// No errors (warnings/infos allowed) — the MCC gate criterion.
    [[nodiscard]] bool ok() const { return error_count() == 0; }
    /// First finding with severity >= Warning matching `rule`; nullptr if none.
    [[nodiscard]] const Finding* first(std::string_view rule) const;
    /// True when some finding carries `rule`.
    [[nodiscard]] bool has(std::string_view rule) const;

    /// Human rendering: one line per finding plus a summary line.
    [[nodiscard]] std::string str() const;

    /// Machine-readable report. Schema (version 1, keys stable):
    ///   { "version": 1, "errors": N, "warnings": N, "infos": N,
    ///     "findings": [ { "rule", "severity", "layer",
    ///                     "subject", "message" }, ... ] }
    [[nodiscard]] std::string json() const;

private:
    std::vector<Finding> findings_;
};

} // namespace sa::lint
