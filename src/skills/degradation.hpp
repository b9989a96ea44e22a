#pragma once
// Graceful-degradation tactics (§IV: "In case of a reduced ability level it
// is possible for the system to apply graceful degradation tactics, e.g. by
// switching to different software modules or by performing
// self-reconfiguration"). Tactics are registered against skills with an
// applicability band on the skill's ability level; the manager picks the
// cheapest applicable tactic per degraded skill and executes it.

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "skills/ability_graph.hpp"

namespace sa::skills {

struct Tactic {
    std::string name;
    std::string target_skill;
    /// Applicable while the target skill's level lies in [min_level, max_level).
    double min_level = 0.0;
    double max_level = 0.85;
    int cost = 1;              ///< smaller = preferable (less functional loss)
    std::function<void()> apply;
    std::function<bool()> extra_condition; ///< optional additional guard
};

struct AppliedTactic {
    std::string tactic;
    std::string skill;
    double level_at_application = 0.0;
};

class DegradationManager {
public:
    void register_tactic(Tactic tactic);

    /// Tactics that would fire for the current ability levels (cheapest per
    /// skill, at most one per skill), without executing them.
    [[nodiscard]] std::vector<const Tactic*> plan(const AbilityGraph& abilities) const;

    /// Execute the plan; each tactic fires at most once until re-armed.
    std::vector<AppliedTactic> execute(const AbilityGraph& abilities);

    /// Re-arm a tactic (e.g. after the skill recovered).
    void rearm(const std::string& tactic_name);

    /// Mark a tactic as fired without executing it here (for callers that
    /// execute tactics themselves, e.g. the ability layer). Records history.
    void mark_fired(const std::string& tactic_name, double level_at_application);

    [[nodiscard]] const std::vector<AppliedTactic>& history() const noexcept {
        return history_;
    }

private:
    struct Entry {
        Tactic tactic;
        bool fired = false;
    };
    std::vector<Entry> tactics_;
    std::vector<AppliedTactic> history_;
};

} // namespace sa::skills
