#include "core/coordinator.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/log.hpp"
#include "util/string_util.hpp"

namespace sa::core {

namespace {

/// Minimum adequacy for a proposal to be acceptable.
constexpr double kMinAdequacy = 0.5;
/// A second action on the same target within this cooldown is a conflict
/// and is suppressed.
constexpr sim::Duration kConflictCooldown = sim::Duration::ms(500);

} // namespace

CrossLayerCoordinator::CrossLayerCoordinator(sim::Simulator& simulator,
                                             CoordinatorConfig config)
    : simulator_(simulator), config_(config) {}

void CrossLayerCoordinator::register_layer(std::unique_ptr<Layer> layer) {
    SA_REQUIRE(layer != nullptr, "layer must not be null");
    SA_REQUIRE(!layers_.contains(layer->id()),
               std::string("layer already registered: ") + to_string(layer->id()));
    layers_[layer->id()] = std::move(layer);
}

bool CrossLayerCoordinator::has_layer(LayerId id) const { return layers_.contains(id); }

Layer& CrossLayerCoordinator::layer(LayerId id) {
    auto it = layers_.find(id);
    SA_REQUIRE(it != layers_.end(), std::string("unknown layer: ") + to_string(id));
    return *it->second;
}

void CrossLayerCoordinator::connect(monitor::MonitorManager& monitors) {
    monitors.anomalies().subscribe([this](const monitor::Anomaly& anomaly) {
        if (anomaly.severity == monitor::Severity::Info) {
            return;
        }
        (void)handle(anomaly);
    });
}

bool CrossLayerCoordinator::target_locked(const std::string& target) const {
    auto it = target_locks_.find(target);
    if (it == target_locks_.end()) {
        return false;
    }
    return simulator_.now() - it->second < kConflictCooldown;
}

Decision CrossLayerCoordinator::handle(const monitor::Anomaly& anomaly) {
    ++handled_;
    Problem problem;
    problem.id = next_problem_id_++;
    problem.anomaly = anomaly;
    problem.entry = entry_layer(anomaly.domain);
    Decision decision = resolve(std::move(problem), kMaxFollowUps);
    if (decision.resolved) {
        ++resolved_;
    }
    push_decision(decision);
    return decision;
}

void CrossLayerCoordinator::push_decision(Decision decision) {
    // The audit trail is bounded: long-running vehicles must not grow the
    // decision history without limit (kDecisionHistory).
    while (decisions_.size() >= kDecisionHistory) {
        decisions_.pop_front();
    }
    decisions_.push_back(std::move(decision));
}

Decision CrossLayerCoordinator::resolve(Problem problem, int follow_up_budget) {
    Decision decision;
    decision.problem_id = problem.id;
    decision.at = simulator_.now();
    decision.anomaly = problem.anomaly;
    decision.entry = problem.entry;

    std::optional<Proposal> chosen;

    // Walk the stack bottom-up starting at the entry layer. With cross-layer
    // coordination disabled (ablation), only the entry layer is consulted.
    const int start = static_cast<int>(problem.entry);
    const int last = config_.cross_layer_enabled ? kLayerCount - 1 : start;
    for (int li = start; li <= last; ++li) {
        auto it = layers_.find(static_cast<LayerId>(li));
        if (it == layers_.end()) {
            continue;
        }
        problem.escalations = li - start;
        auto proposals = it->second->propose(problem);

        // Record everything considered; filter to acceptable ones.
        std::vector<Proposal> acceptable;
        for (auto& p : proposals) {
            decision.considered.push_back(ProposalSummary::of(p));
            if (p.adequacy < kMinAdequacy) {
                continue;
            }
            if (target_locked(p.target)) {
                ++conflicts_;
                ++decision.conflicts_avoided;
                continue;
            }
            acceptable.push_back(std::move(p));
        }
        if (acceptable.empty()) {
            if (li < last) {
                ++escalations_;
            }
            continue; // escalate to the next layer
        }

        // Containment principle: minimal scope, then minimal cost, then
        // highest adequacy. Deterministic tie-break by action name.
        std::sort(acceptable.begin(), acceptable.end(),
                  [](const Proposal& a, const Proposal& b) {
                      if (a.scope != b.scope) return a.scope < b.scope;
                      if (a.cost != b.cost) return a.cost < b.cost;
                      if (a.adequacy != b.adequacy) return a.adequacy > b.adequacy;
                      return a.action < b.action;
                  });
        chosen = std::move(acceptable.front());
        decision.escalations = li - start;
        break;
    }

    if (!chosen.has_value()) {
        decision.resolved = false;
        decision.escalations = last - start;
        decision.rationale =
            format("no adequate countermeasure in the %d layer(s) consulted",
                   last - start + 1);
        SA_LOG_WARN << "coordinator: problem " << problem.id << " ("
                    << problem.anomaly.kind << ") unresolved — " << decision.rationale;
        return decision;
    }

    // Execute and lock the target against conflicting concurrent actions.
    decision.executed = ProposalSummary::of(*chosen);
    target_locks_[chosen->target] = simulator_.now();
    if (chosen->execute) {
        chosen->execute();
    }
    decision.resolved = true;
    decision.rationale = format("picked %s at layer %s (entry %s, %d escalation(s))",
                                chosen->action.c_str(), to_string(chosen->layer),
                                to_string(problem.entry), decision.escalations);
    SA_LOG_INFO << "coordinator: problem " << problem.id << " (" << problem.anomaly.kind
                << ") -> " << decision.executed->str();

    // Consequence propagation: the chosen countermeasure may itself create a
    // problem on another layer (e.g. containment => component loss). Bounded
    // by the follow-up budget.
    if (chosen->follow_up.has_value() && follow_up_budget > 0) {
        Problem follow;
        follow.id = next_problem_id_++;
        follow.anomaly = *chosen->follow_up;
        follow.anomaly.at = simulator_.now();
        follow.entry = entry_layer(follow.anomaly.domain);
        Decision follow_decision = resolve(std::move(follow), follow_up_budget - 1);
        ++handled_;
        if (follow_decision.resolved) {
            ++resolved_;
        }
        push_decision(std::move(follow_decision));
    }

    return decision;
}

} // namespace sa::core
