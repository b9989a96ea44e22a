#pragma once
// Objective layer: the top of the stack — it may "alter the driving
// objective of the system. An option would be to transition the system into
// a safe state, i.e. stop driving" (§V). It always has an adequate answer
// (safe stop), which is what bounds every escalation chain; cheaper
// objective changes (re-route, platooning) are offered when the embedding
// system registers them.

#include <functional>
#include <optional>

#include "core/layer.hpp"

namespace sa::core {

enum class DrivingObjective { Drive, DegradedDrive, SafeStop, Stopped };

const char* to_string(DrivingObjective objective) noexcept;

class ObjectiveLayer : public Layer {
public:
    ObjectiveLayer();

    std::vector<Proposal> propose(const Problem& problem) override;
    [[nodiscard]] double health() const override;

    [[nodiscard]] DrivingObjective objective() const noexcept { return objective_; }

    /// Optional alternative objective changes, tried before safe stop.
    struct Alternative {
        std::string name;       ///< e.g. "replan_route", "join_platoon"
        double cost = 0.5;
        /// Applicability test for the anomaly kinds this helps against.
        std::function<bool(const Problem&)> applicable;
        std::function<void()> apply;
    };
    void add_alternative(Alternative alternative);

    /// Hook invoked when safe stop is executed (vehicle-side braking etc.).
    void set_safe_stop_action(std::function<void()> action) {
        safe_stop_action_ = std::move(action);
    }

private:
    DrivingObjective objective_ = DrivingObjective::Drive;
    std::vector<Alternative> alternatives_;
    std::function<void()> safe_stop_action_;
};

} // namespace sa::core
