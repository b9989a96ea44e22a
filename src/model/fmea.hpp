#pragma once
// Automated failure-mode and effects analysis over the cross-layer
// dependency graph (§V: "In traditional design, such dependencies are
// identified with semiformal methods, such as a Failure Mode and Effects
// Analysis (FMEA). In CCC, such dependency analysis is automated").
//
// Given a failure mode of any node (an ECU dying, a thermal zone overheating,
// a component compromised), the engine computes the transitively affected
// set, scores the worst reached ASIL, and notes available mitigations
// (redundancy partners that survive the failure).

#include <string>
#include <vector>

#include "model/dependency_graph.hpp"

namespace sa::model {

enum class FailureMode { Loss, Degraded, Babbling };

struct FmeaEntry {
    DepNodeId failed;
    FailureMode mode = FailureMode::Loss;
    std::vector<DepNodeId> affected;       ///< transitively affected nodes
    std::vector<std::string> lost_components;
    Asil worst_asil = Asil::QM;            ///< highest ASIL among lost components
    std::vector<std::string> mitigations;  ///< surviving redundancy partners
    bool fail_operational = true;          ///< every lost ASIL>=C component mitigated
};

struct FmeaReport {
    std::vector<FmeaEntry> entries;

    [[nodiscard]] const FmeaEntry* find(const DepNodeId& failed) const;
    [[nodiscard]] std::size_t not_fail_operational() const;
};

class FmeaEngine {
public:
    FmeaEngine(const DependencyGraph& graph, const FunctionModel& functions)
        : graph_(graph), functions_(functions) {}

    /// Analyze one failure mode.
    [[nodiscard]] FmeaEntry analyze(const DepNodeId& failed,
                                    FailureMode mode = FailureMode::Loss) const;

    /// Analyze loss of every ECU, bus, sensor and component (the standard
    /// sweep a safety engineer would request).
    [[nodiscard]] FmeaReport analyze_all() const;

private:
    const DependencyGraph& graph_;
    const FunctionModel& functions_;
};

} // namespace sa::model
