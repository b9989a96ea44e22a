#include "model/dependency_graph.hpp"

#include <queue>

#include "util/assert.hpp"

namespace sa::model {

void DependencyGraph::add_node(DepNodeId node) { nodes_.insert(std::move(node)); }

void DependencyGraph::add_edge(DepNodeId from, DepNodeId to, DepEdgeKind kind) {
    nodes_.insert(from);
    nodes_.insert(to);
    edges_.push_back(DepEdge{std::move(from), std::move(to), kind});
}

bool DependencyGraph::has_node(const DepNodeId& node) const { return nodes_.contains(node); }

std::vector<DepNodeId> DependencyGraph::nodes() const {
    return {nodes_.begin(), nodes_.end()};
}

std::vector<DepNodeId> DependencyGraph::successors(const DepNodeId& node,
                                                   std::optional<DepEdgeKind> kind) const {
    std::vector<DepNodeId> out;
    for (const auto& e : edges_) {
        if (e.from == node && (!kind.has_value() || e.kind == *kind)) {
            out.push_back(e.to);
        }
    }
    return out;
}

std::set<DepNodeId> DependencyGraph::dependents_of(const DepNodeId& node) const {
    std::set<DepNodeId> seen;
    std::queue<DepNodeId> frontier;
    frontier.push(node);
    while (!frontier.empty()) {
        DepNodeId current = frontier.front();
        frontier.pop();
        for (const auto& e : edges_) {
            if (e.to == current && e.kind != DepEdgeKind::SharesResource &&
                seen.insert(e.from).second) {
                frontier.push(e.from);
            }
        }
    }
    seen.erase(node);
    return seen;
}

std::set<DepNodeId> DependencyGraph::dependencies_of(const DepNodeId& node) const {
    std::set<DepNodeId> seen;
    std::queue<DepNodeId> frontier;
    frontier.push(node);
    while (!frontier.empty()) {
        DepNodeId current = frontier.front();
        frontier.pop();
        for (const auto& e : edges_) {
            if (e.from == current && e.kind != DepEdgeKind::SharesResource &&
                seen.insert(e.to).second) {
                frontier.push(e.to);
            }
        }
    }
    seen.erase(node);
    return seen;
}

DependencyGraph build_dependency_graph(const FunctionModel& functions,
                                       const PlatformModel& platform,
                                       const Mapping& mapping) {
    DependencyGraph g;

    for (const auto& ecu : platform.ecus) {
        const DepNodeId ecu_node{DepNodeKind::Ecu, ecu.name};
        g.add_node(ecu_node);
        g.add_edge(ecu_node, DepNodeId{DepNodeKind::ThermalZone, ecu.thermal_zone},
                   DepEdgeKind::ThermallyCoupled);
        g.add_edge(ecu_node, DepNodeId{DepNodeKind::PowerDomain, ecu.power_domain},
                   DepEdgeKind::PoweredBy);
    }
    for (const auto& bus : platform.buses) {
        g.add_node(DepNodeId{DepNodeKind::Bus, bus.name});
    }

    for (const auto& c : functions.contracts()) {
        const DepNodeId comp{DepNodeKind::Component, c.component};
        g.add_node(comp);

        const std::string ecu = mapping.ecu_of(c.component);
        if (!ecu.empty()) {
            g.add_edge(comp, DepNodeId{DepNodeKind::Ecu, ecu}, DepEdgeKind::MappedTo);
        }
        for (const auto& t : c.tasks) {
            const DepNodeId task{DepNodeKind::Task, c.component + "." + t.name};
            // The component needs its tasks; tasks run on the ECU.
            g.add_edge(comp, task, DepEdgeKind::DependsOn);
            if (!ecu.empty()) {
                g.add_edge(task, DepNodeId{DepNodeKind::Ecu, ecu}, DepEdgeKind::MappedTo);
            }
        }
        for (const auto& p : c.provides) {
            // The service needs its providing component.
            g.add_edge(DepNodeId{DepNodeKind::Service, p.name}, comp,
                       DepEdgeKind::Provides);
        }
        for (const auto& m : c.messages) {
            const DepNodeId msg{DepNodeKind::Message, m.name};
            g.add_edge(msg, comp, DepEdgeKind::Sends); // message needs its sender
            auto bus = mapping.message_to_bus.find(m.name);
            if (bus != mapping.message_to_bus.end()) {
                g.add_edge(msg, DepNodeId{DepNodeKind::Bus, bus->second},
                           DepEdgeKind::MappedTo);
            }
        }
    }

    // Requires edges: client depends on the service node.
    for (const auto& ch : functions.channels()) {
        if (ch.provider.empty()) {
            continue;
        }
        g.add_edge(DepNodeId{DepNodeKind::Component, ch.client},
                   DepNodeId{DepNodeKind::Service, ch.service}, DepEdgeKind::DependsOn);
    }

    // Derived shared-resource edges between co-located components (explicit,
    // so FMEA reports name them without re-deriving placement).
    const auto& contracts = functions.contracts();
    for (std::size_t i = 0; i < contracts.size(); ++i) {
        for (std::size_t j = i + 1; j < contracts.size(); ++j) {
            const std::string ea = mapping.ecu_of(contracts[i].component);
            const std::string eb = mapping.ecu_of(contracts[j].component);
            if (!ea.empty() && ea == eb) {
                g.add_edge(DepNodeId{DepNodeKind::Component, contracts[i].component},
                           DepNodeId{DepNodeKind::Component, contracts[j].component},
                           DepEdgeKind::SharesResource);
                g.add_edge(DepNodeId{DepNodeKind::Component, contracts[j].component},
                           DepNodeId{DepNodeKind::Component, contracts[i].component},
                           DepEdgeKind::SharesResource);
            }
        }
    }

    return g;
}

} // namespace sa::model
