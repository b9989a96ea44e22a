#pragma once
// DegradationPolicy: the single path from monitor alarms to ability-graph
// degradation. Previously every example hand-wired its own ability-update
// hook (anomaly kind X => set source Y to 0.35); now the mapping is data —
// the capability registry's alarm bindings plus any scenario-specific rules
// — and every consumer (the ability layer inside the cross-layer
// coordinator, the self-model, the platoon maneuver engine) observes the
// same policy outcome.
//
// A policy instance tracks the per-capability quality state of ONE ability
// graph (one vehicle): each matched binding sets one typed quality attribute
// of the capability, the capability's effective level is the minimum over
// its tracked attributes (conservative: any degraded quality caps the
// node), and the effective level is pushed into the graph as a source/sink
// level or a skill's intrinsic level.

#include <map>
#include <string>
#include <vector>

#include "skills/ability_graph.hpp"
#include "skills/capability_registry.hpp"

namespace sa::skills {

/// One recorded policy application (for audits and tests).
struct AppliedDowngrade {
    std::string capability;
    QualityKind quality = QualityKind::Availability;
    double value = 1.0;          ///< attribute value imposed
    double effective_level = 1.0; ///< resulting node level in the graph
    std::string anomaly_kind;
};

class DegradationPolicy {
public:
    /// Rules come from `registry` (alarm bindings) plus any added later via
    /// on_anomaly(). The registry must outlive the policy.
    explicit DegradationPolicy(
        const CapabilityRegistry& registry = CapabilityRegistry::builtin())
        : registry_(&registry) {}

    /// Add a scenario-specific rule on top of the registry's bindings.
    DegradationPolicy& on_anomaly(AlarmBinding rule);

    /// Map `anomaly` onto capability-quality downgrades of `abilities`.
    /// Bindings whose capability is not a node of the graph are skipped (a
    /// vehicle only has the capabilities its spec declares). Returns true
    /// when any node level changed (the ability layer re-propagates then).
    bool apply(const monitor::Anomaly& anomaly, AbilityGraph& abilities);

    /// Reset a capability's tracked qualities to nominal and restore its
    /// node level.
    void restore(const std::string& capability, AbilityGraph& abilities);

    [[nodiscard]] const std::vector<AppliedDowngrade>& history() const noexcept {
        return history_;
    }
    /// Effective level of a capability under the tracked quality state
    /// (1.0 when never downgraded).
    [[nodiscard]] double effective_level(const std::string& capability) const;

    [[nodiscard]] const CapabilityRegistry& registry() const noexcept {
        return *registry_;
    }

    /// Scenario-specific rules added via on_anomaly(). Unlike the registry's
    /// bindings these are NOT validated at insertion — sa::lint checks them
    /// against the registry (rule SKL006).
    [[nodiscard]] const std::vector<AlarmBinding>& extra_rules() const noexcept {
        return extra_rules_;
    }

private:
    void push_level(const std::string& capability, double level,
                    AbilityGraph& abilities) const;

    const CapabilityRegistry* registry_;
    std::vector<AlarmBinding> extra_rules_;
    /// capability -> quality -> current attribute value.
    std::map<std::string, std::map<QualityKind, double>> state_;
    std::vector<AppliedDowngrade> history_;
};

} // namespace sa::skills
