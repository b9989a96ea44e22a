#pragma once
// Cross-layer dependency graph (Möstl & Ernst [23][24]: "such dependency
// analysis is automated to derive cross-layer dependency models describing
// the effect of change and actions on the overall system"). Nodes live on
// different layers (function, software, platform, physical); typed edges
// record how effects propagate. The FMEA engine (model/fmea.hpp) and the
// cross-layer coordinator both query this graph.

#include <compare>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "model/function_model.hpp"
#include "model/mapping.hpp"
#include "model/platform_model.hpp"

namespace sa::model {

enum class DepNodeKind {
    Function,    ///< logical vehicle function / skill
    Component,   ///< software component
    Task,        ///< RTE task
    Service,     ///< micro-server service
    Message,     ///< CAN message
    Ecu,         ///< processing resource
    Bus,         ///< communication resource
    PowerDomain, ///< shared power supply
    ThermalZone, ///< shared thermal environment
    Sensor,      ///< data source
};

enum class DepEdgeKind {
    MappedTo,         ///< component -> ECU, message -> bus
    Provides,         ///< component -> service
    DependsOn,        ///< client component -> service it requires
    Sends,            ///< component -> message
    SharesResource,   ///< implicit co-location (derived)
    ThermallyCoupled, ///< ECU -> thermal zone
    PoweredBy,        ///< ECU -> power domain
    Feeds,            ///< sensor -> component
};

struct DepNodeId {
    DepNodeKind kind;
    std::string name;

    auto operator<=>(const DepNodeId&) const = default;
};

struct DepEdge {
    DepNodeId from;
    DepNodeId to;
    DepEdgeKind kind;
};

class DependencyGraph {
public:
    void add_node(DepNodeId node);
    void add_edge(DepNodeId from, DepNodeId to, DepEdgeKind kind);

    [[nodiscard]] bool has_node(const DepNodeId& node) const;
    [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
    [[nodiscard]] std::size_t edge_count() const noexcept { return edges_.size(); }
    [[nodiscard]] std::vector<DepNodeId> nodes() const;

    /// Outgoing neighbours, optionally filtered by edge kind.
    [[nodiscard]] std::vector<DepNodeId> successors(
        const DepNodeId& node, std::optional<DepEdgeKind> kind = std::nullopt) const;

    /// All nodes whose correct operation (transitively) depends on `node`:
    /// reverse reachability over the edge direction "X -> thing X needs".
    /// This is the "affected set" of a failure of `node`. SharesResource
    /// edges are excluded: co-location alone does not make a neighbour fail
    /// (the babbling mode of the FMEA engine traverses them explicitly).
    [[nodiscard]] std::set<DepNodeId> dependents_of(const DepNodeId& node) const;

    /// All nodes `node` (transitively) depends on (SharesResource excluded).
    [[nodiscard]] std::set<DepNodeId> dependencies_of(const DepNodeId& node) const;

private:
    std::set<DepNodeId> nodes_;
    std::vector<DepEdge> edges_;
};

/// Build the full cross-layer graph from the current system model. Dependency
/// direction convention: an edge X --DependsOn/MappedTo/...--> Y means "X
/// needs Y"; failures propagate from Y to X. Shared-environment edges
/// (thermal zone, power domain) attach ECUs to physical nodes so common-cause
/// analysis can traverse them.
DependencyGraph build_dependency_graph(const FunctionModel& functions,
                                       const PlatformModel& platform,
                                       const Mapping& mapping);

} // namespace sa::model
