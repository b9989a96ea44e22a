#pragma once
// Cross-layer coordinator — the paper's central mechanism (§V). Anomalies
// enter at their origin layer; the coordinator collects countermeasure
// proposals, picks the *lowest adequate layer with minimal scope* (contain
// an IP service rather than kill the Ethernet), executes it, and processes
// any follow-up consequences through the stack again. Escalation stops at
// the top layer and follow-ups are capped (kMaxFollowUps), so problems are
// never "forwarded ad infinitum", and concurrently proposed actions on the
// same target are serialized to avoid the "conflicting decisions [that]
// could lead to catastrophic effects".

#include <deque>
#include <map>
#include <memory>

#include "core/countermeasure.hpp"
#include "core/layer.hpp"
#include "monitor/manager.hpp"
#include "sim/simulator.hpp"

namespace sa::core {

struct CoordinatorConfig {
    /// Ablation switch: false = only the entry layer is consulted, no
    /// escalation (the "single-layer self-awareness" baseline of the paper's
    /// argument).
    bool cross_layer_enabled = true;
};

class CrossLayerCoordinator {
public:
    CrossLayerCoordinator(sim::Simulator& simulator, CoordinatorConfig config = {});

    /// Register a layer implementation (owned). Each LayerId at most once.
    void register_layer(std::unique_ptr<Layer> layer);
    [[nodiscard]] bool has_layer(LayerId id) const;
    [[nodiscard]] Layer& layer(LayerId id);

    /// Subscribe to a monitor manager's anomaly stream; Warning and Critical
    /// anomalies are handled, Info is ignored.
    void connect(monitor::MonitorManager& monitors);

    /// Handle one anomaly synchronously; returns the (root) decision.
    Decision handle(const monitor::Anomaly& anomaly);

    // --- introspection -------------------------------------------------------
    [[nodiscard]] const std::deque<Decision>& decisions() const noexcept {
        return decisions_;
    }
    [[nodiscard]] std::uint64_t problems_handled() const noexcept { return handled_; }
    [[nodiscard]] std::uint64_t problems_resolved() const noexcept { return resolved_; }
    [[nodiscard]] std::uint64_t problems_unresolved() const noexcept {
        return handled_ - resolved_;
    }
    [[nodiscard]] std::uint64_t total_escalations() const noexcept { return escalations_; }
    [[nodiscard]] std::uint64_t conflicts_avoided() const noexcept { return conflicts_; }

    /// Retained decision records; decisions() never grows beyond this.
    static constexpr std::size_t kDecisionHistory = 1024;
    /// Follow-up problems processed per root anomaly.
    static constexpr int kMaxFollowUps = 4;

private:
    Decision resolve(Problem problem, int follow_up_budget);
    void push_decision(Decision decision);
    [[nodiscard]] bool target_locked(const std::string& target) const;

    sim::Simulator& simulator_;
    CoordinatorConfig config_;
    std::map<LayerId, std::unique_ptr<Layer>> layers_;
    std::deque<Decision> decisions_;
    std::map<std::string, sim::Time> target_locks_;
    std::uint64_t next_problem_id_ = 1;
    std::uint64_t handled_ = 0;
    std::uint64_t resolved_ = 0;
    std::uint64_t escalations_ = 0;
    std::uint64_t conflicts_ = 0;
};

} // namespace sa::core
