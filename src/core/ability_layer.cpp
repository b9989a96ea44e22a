#include "core/ability_layer.hpp"

#include <algorithm>

namespace sa::core {

AbilityLayer::AbilityLayer(skills::AbilityGraph& abilities,
                           skills::DegradationManager& tactics, std::string root_skill)
    : Layer(LayerId::Ability),
      abilities_(abilities),
      tactics_(tactics),
      root_skill_(std::move(root_skill)) {}

std::vector<Proposal> AbilityLayer::propose(const Problem& problem) {
    std::vector<Proposal> out;

    // Map the anomaly onto ability inputs, then re-propagate.
    if (update_hook_) {
        (void)update_hook_(problem);
    }
    abilities_.propagate();

    // Every applicable tactic becomes a proposal. Cost scales with the
    // declared tactic cost; scope is the share of the graph below nominal.
    const auto plan = tactics_.plan(abilities_);
    if (plan.empty()) {
        return out;
    }
    const double scope_base =
        0.2 + 0.5 * static_cast<double>(abilities_.below_nominal_count()) /
                  static_cast<double>(abilities_.node_count());

    for (const skills::Tactic* t : plan) {
        Proposal p;
        p.layer = id();
        p.action = "tactic:" + t->name;
        p.target = t->target_skill;
        p.scope = std::min(1.0, scope_base);
        p.cost = std::min(1.0, 0.1 * static_cast<double>(t->cost));
        // A tactic is adequate when the root skill is still above
        // unavailable — functional compensation only works while the overall
        // function exists at all.
        const double root = abilities_.level(root_skill_);
        p.adequacy = root > skills::kMarginalLevel ? 0.85 : 0.25;
        p.execute = [this, t] {
            const double level = abilities_.level(t->target_skill);
            t->apply();
            tactics_.mark_fired(t->name, level);
            ++tactics_applied_;
            abilities_.propagate();
        };
        out.push_back(std::move(p));
    }
    (void)problem;
    return out;
}

double AbilityLayer::health() const { return abilities_.level(root_skill_); }

} // namespace sa::core
