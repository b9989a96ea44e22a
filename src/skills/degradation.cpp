#include "skills/degradation.hpp"

#include <algorithm>
#include <map>

#include "util/assert.hpp"

namespace sa::skills {

void DegradationManager::register_tactic(Tactic tactic) {
    SA_REQUIRE(!tactic.name.empty(), "tactic needs a name");
    SA_REQUIRE(static_cast<bool>(tactic.apply), "tactic needs an apply action");
    SA_REQUIRE(tactic.min_level <= tactic.max_level, "tactic band must be non-empty");
    tactics_.push_back(Entry{std::move(tactic), false});
}

std::vector<const Tactic*> DegradationManager::plan(const AbilityGraph& abilities) const {
    // Cheapest applicable tactic per skill.
    std::map<std::string, const Tactic*> best;
    for (const auto& entry : tactics_) {
        if (entry.fired) {
            continue;
        }
        const Tactic& t = entry.tactic;
        if (!abilities.has_node(t.target_skill)) {
            continue;
        }
        const double level = abilities.level(t.target_skill);
        if (level < t.min_level || level >= t.max_level) {
            continue;
        }
        if (t.extra_condition && !t.extra_condition()) {
            continue;
        }
        auto it = best.find(t.target_skill);
        if (it == best.end() || t.cost < it->second->cost) {
            best[t.target_skill] = &t;
        }
    }
    std::vector<const Tactic*> out;
    out.reserve(best.size());
    for (const auto& [_, t] : best) {
        out.push_back(t);
    }
    return out;
}

std::vector<AppliedTactic> DegradationManager::execute(const AbilityGraph& abilities) {
    std::vector<AppliedTactic> applied;
    for (const Tactic* t : plan(abilities)) {
        for (auto& entry : tactics_) {
            if (&entry.tactic == t) {
                entry.fired = true;
            }
        }
        AppliedTactic record{t->name, t->target_skill, abilities.level(t->target_skill)};
        t->apply();
        history_.push_back(record);
        applied.push_back(record);
    }
    return applied;
}

void DegradationManager::mark_fired(const std::string& tactic_name,
                                    double level_at_application) {
    for (auto& entry : tactics_) {
        if (entry.tactic.name == tactic_name && !entry.fired) {
            entry.fired = true;
            history_.push_back(AppliedTactic{tactic_name, entry.tactic.target_skill,
                                             level_at_application});
        }
    }
}

void DegradationManager::rearm(const std::string& tactic_name) {
    for (auto& entry : tactics_) {
        if (entry.tactic.name == tactic_name) {
            entry.fired = false;
        }
    }
}

} // namespace sa::skills
