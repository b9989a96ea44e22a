#pragma once
// Vehicle self-model: the "consistent self-representation of the system"
// (§V) aggregated from all layers. Snapshots are versioned and taken
// atomically in simulation time, so consumers (decision making, HMI,
// telemetry) always see a coherent picture rather than a mix of stale and
// fresh per-layer values.
//
// The model keeps one snapshot, the latest: capture() rewrites it in place
// (after the first capture it allocates nothing when the layers' health()
// does not) and publishes it through snapshot_taken(). A consumer that
// wants a history collects the published snapshots itself.

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/coordinator.hpp"

namespace sa::skills {
class AbilityGraph;
} // namespace sa::skills

namespace sa::core {

struct SelfSnapshot {
    std::uint64_t version = 0;
    sim::Time at;
    std::map<LayerId, double> layer_health; ///< [0, 1] per registered layer
    double overall = 1.0;                   ///< min over layers
    std::uint64_t open_problems = 0;        ///< handled - resolved so far
    /// Root-skill name and ability level when the self-model is bound to an
    /// ability graph (the degradation-policy outcome in the
    /// self-representation); absent otherwise.
    std::string root_skill;
    std::optional<double> root_ability;

    [[nodiscard]] double health(LayerId layer) const;
    [[nodiscard]] std::string str() const;
};

class SelfModel {
public:
    SelfModel(sim::Simulator& simulator, CrossLayerCoordinator& coordinator)
        : simulator_(simulator), coordinator_(coordinator) {}

    /// Include the ability graph's root-skill level in every snapshot: the
    /// degradation flow (monitor alarm -> DegradationPolicy -> ability
    /// graph) becomes visible in the self-representation. `abilities` must
    /// outlive this model.
    void bind_abilities(const skills::AbilityGraph& abilities, std::string root_skill);

    /// Take a consistent snapshot now: it replaces the latest one, is
    /// published, and is returned.
    const SelfSnapshot& capture();

    /// Capture periodically.
    void start(sim::Duration period);
    void stop();

    [[nodiscard]] bool has_snapshot() const noexcept { return latest_.version != 0; }
    /// The latest snapshot. Requires has_snapshot().
    [[nodiscard]] const SelfSnapshot& latest() const;

    sim::Signal<const SelfSnapshot&>& snapshot_taken() noexcept { return published_; }

private:
    sim::Simulator& simulator_;
    CrossLayerCoordinator& coordinator_;
    const skills::AbilityGraph* abilities_ = nullptr;
    std::string root_skill_;
    SelfSnapshot latest_; ///< version 0 until the first capture
    std::uint64_t periodic_id_ = 0;
    sim::Signal<const SelfSnapshot&> published_;
};

} // namespace sa::core
