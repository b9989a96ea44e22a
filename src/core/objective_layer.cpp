#include "core/objective_layer.hpp"

#include "util/assert.hpp"

namespace sa::core {

const char* to_string(DrivingObjective objective) noexcept {
    switch (objective) {
    case DrivingObjective::Drive: return "drive";
    case DrivingObjective::DegradedDrive: return "degraded_drive";
    case DrivingObjective::SafeStop: return "safe_stop";
    case DrivingObjective::Stopped: return "stopped";
    }
    return "?";
}

ObjectiveLayer::ObjectiveLayer() : Layer(LayerId::Objective) {}

void ObjectiveLayer::add_alternative(Alternative alternative) {
    SA_REQUIRE(static_cast<bool>(alternative.apply), "alternative needs an apply action");
    SA_REQUIRE(static_cast<bool>(alternative.applicable),
               "alternative needs an applicability test");
    alternatives_.push_back(std::move(alternative));
}

std::vector<Proposal> ObjectiveLayer::propose(const Problem& problem) {
    std::vector<Proposal> out;

    // Cheaper objective changes first (registered by the embedding system).
    for (const auto& alt : alternatives_) {
        if (!alt.applicable(problem)) {
            continue;
        }
        Proposal p;
        p.layer = id();
        p.action = alt.name;
        p.target = "objective";
        p.scope = 0.8;
        p.cost = alt.cost;
        p.adequacy = 0.8;
        auto apply = alt.apply;
        p.execute = [this, apply] {
            objective_ = DrivingObjective::DegradedDrive;
            apply();
        };
        out.push_back(std::move(p));
    }

    // The unconditional last resort: transition to a safe state. Maximum
    // scope and cost, but always adequate — this is what guarantees every
    // escalation chain terminates with a decision.
    {
        Proposal p;
        p.layer = id();
        p.action = "safe_stop";
        p.target = "objective";
        p.scope = 1.0;
        p.cost = 1.0;
        p.adequacy = 1.0;
        p.execute = [this] {
            objective_ = DrivingObjective::SafeStop;
            if (safe_stop_action_) {
                safe_stop_action_();
            }
        };
        out.push_back(std::move(p));
    }
    return out;
}

double ObjectiveLayer::health() const {
    switch (objective_) {
    case DrivingObjective::Drive: return 1.0;
    case DrivingObjective::DegradedDrive: return 0.7;
    case DrivingObjective::SafeStop: return 0.3;
    case DrivingObjective::Stopped: return 0.2;
    }
    return 0.0;
}

} // namespace sa::core
