#include "skills/degradation_policy.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace sa::skills {

DegradationPolicy& DegradationPolicy::on_anomaly(AlarmBinding rule) {
    SA_REQUIRE(!rule.anomaly_kind.empty(), "policy rule needs an anomaly kind");
    SA_REQUIRE(rule.degraded_value >= 0.0 && rule.degraded_value <= 1.0,
               "degraded value must be within [0,1]");
    extra_rules_.push_back(std::move(rule));
    return *this;
}

double DegradationPolicy::effective_level(const std::string& capability) const {
    auto it = state_.find(capability);
    if (it == state_.end() || it->second.empty()) {
        return 1.0;
    }
    double level = 1.0;
    for (const auto& [_, value] : it->second) {
        level = std::min(level, value);
    }
    return level;
}

void DegradationPolicy::push_level(const std::string& capability, double level,
                                   AbilityGraph& abilities) const {
    if (abilities.kind(capability) == SkillNodeKind::Skill) {
        abilities.set_intrinsic_level(capability, level);
    } else {
        abilities.set_source_level(capability, level);
    }
}

bool DegradationPolicy::apply(const monitor::Anomaly& anomaly,
                              AbilityGraph& abilities) {
    bool changed = false;
    auto apply_binding = [&](const AlarmBinding& binding) {
        if (!binding.matches(anomaly)) {
            return;
        }
        const std::string& capability = binding.capability_for(anomaly);
        if (capability.empty() || !abilities.has_node(capability)) {
            return; // this vehicle's graph has no such capability
        }
        auto& qualities = state_[capability];
        auto it = qualities.find(binding.quality);
        const bool state_changed =
            it == qualities.end() || it->second != binding.degraded_value;
        qualities[binding.quality] = binding.degraded_value;
        const double level = effective_level(capability);
        // Re-impose the effective level even when the tracked state did not
        // move: a tactic or script may have written the graph node directly
        // since the last alarm, and a re-asserted alarm must win over that
        // stale level. A no-op in both state and graph is skipped entirely
        // (repeated identical alarms stay idempotent, history stays
        // bounded by actual change). The graph-side comparison reads what
        // push_level writes: the intrinsic cap for skills (a skill's
        // *propagated* level also reflects its children and would never
        // match while they are degraded), the node level otherwise.
        const bool is_skill = abilities.kind(capability) == SkillNodeKind::Skill;
        const double current = is_skill ? abilities.intrinsic_level(capability)
                                        : abilities.level(capability);
        if (!state_changed && current == level) {
            return;
        }
        push_level(capability, level, abilities);
        history_.push_back(AppliedDowngrade{capability, binding.quality,
                                            binding.degraded_value, level,
                                            anomaly.kind});
        changed = true;
    };
    for (const auto& binding : registry_->alarm_bindings()) {
        apply_binding(binding);
    }
    for (const auto& rule : extra_rules_) {
        apply_binding(rule);
    }
    return changed;
}

void DegradationPolicy::restore(const std::string& capability,
                                AbilityGraph& abilities) {
    state_.erase(capability);
    if (abilities.has_node(capability)) {
        push_level(capability, 1.0, abilities);
    }
}

} // namespace sa::skills
