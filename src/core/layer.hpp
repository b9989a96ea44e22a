#pragma once
// Self-awareness layers (§V). A detected anomaly enters the layer stack at
// the layer owning its origin domain; each layer may propose countermeasures
// with an explicit scope/cost/adequacy so the coordinator can "identify the
// most appropriate layer to respond to detected anomalies without the need
// to anticipate the exact situation at design time".

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "monitor/metric.hpp"

namespace sa::core {

/// Layer stack, bottom-up. Escalation moves towards Objective.
enum class LayerId {
    Platform = 0,  ///< hardware/software platform (DVFS, scheduling, restart)
    Network = 1,   ///< communication + security containment
    Safety = 2,    ///< redundancy, recovery, safe-guards
    Ability = 3,   ///< skill/ability reassessment, graceful degradation
    Objective = 4, ///< driving objective (safe stop, re-route, platoon)
};

inline constexpr int kLayerCount = 5;

const char* to_string(LayerId layer) noexcept;

/// Which layer an anomaly from a given origin domain enters at.
[[nodiscard]] LayerId entry_layer(monitor::Domain domain) noexcept;

/// A problem travelling through the layer stack.
struct Problem {
    std::uint64_t id = 0;
    monitor::Anomaly anomaly;
    LayerId entry = LayerId::Platform;
    int escalations = 0; ///< hops taken so far
};

/// A countermeasure offer from one layer.
struct Proposal {
    LayerId layer = LayerId::Platform;
    std::string action; ///< machine-matchable, e.g. "contain_component"
    std::string target; ///< the resource acted upon (conflict detection key)
    double scope = 0.5;    ///< fraction of the system affected (0..1; pick small)
    double cost = 0.5;     ///< functional loss (0..1; pick small)
    double adequacy = 0.5; ///< confidence this resolves the problem (0..1)
    std::function<void()> execute;
    /// Optional follow-up the coordinator must handle after execution (e.g.
    /// containment produces a component-loss problem for the safety layer).
    std::optional<monitor::Anomaly> follow_up;
};

class Layer {
public:
    explicit Layer(LayerId id) : id_(id) {}
    virtual ~Layer() = default;

    Layer(const Layer&) = delete;
    Layer& operator=(const Layer&) = delete;

    [[nodiscard]] LayerId id() const noexcept { return id_; }

    /// Countermeasure offers for the problem (empty if not responsible).
    [[nodiscard]] virtual std::vector<Proposal> propose(const Problem& problem) = 0;

    /// Layer health in [0, 1] for the vehicle self-model.
    [[nodiscard]] virtual double health() const = 0;

private:
    LayerId id_;
};

} // namespace sa::core
