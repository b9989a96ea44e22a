#include "lint/scenario_rules.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/string_util.hpp"

namespace sa::lint {
namespace {

/// Does every frame matching (inner_id, inner_mask) also match
/// (outer_id, outer_mask)? Matching: (frame.id & mask) == (id & mask).
bool subsumes(std::uint32_t outer_id, std::uint32_t outer_mask,
              std::uint32_t inner_id, std::uint32_t inner_mask) {
    return (outer_mask & ~inner_mask) == 0 &&
           ((outer_id ^ inner_id) & outer_mask) == 0;
}

void check_route_shadowing(const std::string& vehicle,
                           const GatewayShape& gateway, LintReport& report) {
    for (std::size_t later = 0; later < gateway.routes.size(); ++later) {
        for (std::size_t earlier = 0; earlier < later; ++earlier) {
            const RouteShape& e = gateway.routes[earlier];
            const RouteShape& l = gateway.routes[later];
            if (e.from != l.from || e.to != l.to) {
                continue;
            }
            if (subsumes(e.id, e.mask, l.id, l.mask)) {
                report.add(
                    "SCN001",
                    format("vehicle %s / gateway %s / route %zu",
                           vehicle.c_str(), gateway.name.c_str(), later),
                    format("id 0x%x mask 0x%x is subsumed by route %zu "
                           "(id 0x%x mask 0x%x): every frame it matches is "
                           "already forwarded, so frames arrive twice",
                           l.id, l.mask, earlier, e.id, e.mask));
                break; // one finding per shadowed route is enough
            }
        }
    }
}

/// One edge of the scenario-wide forwarding graph ("vehicle:bus" nodes).
struct ForwardEdge {
    std::string from;
    std::string to;
    std::uint32_t id = 0;
    std::uint32_t mask = 0;
    std::string label; ///< owning gateway/bridge, for the finding text
};

/// Accumulated id/mask constraint along a forwarding path.
struct PathConstraint {
    std::uint32_t value = 0;
    std::uint32_t mask = 0;

    [[nodiscard]] bool compatible(const ForwardEdge& edge) const {
        return ((value ^ edge.id) & (mask & edge.mask)) == 0;
    }
    [[nodiscard]] PathConstraint combined(const ForwardEdge& edge) const {
        PathConstraint next;
        next.mask = mask | edge.mask;
        next.value = (value & mask) | (edge.id & edge.mask & ~mask);
        return next;
    }
};

/// Depth-first elementary-cycle search with filter-constraint pruning. Each
/// cycle is found once: the walk starts at its lowest-numbered edge and only
/// uses edges with a higher index. Work is bounded (kMaxSteps) — topologies
/// are tens of routes, not thousands, and lint must stay cheap.
class CycleSearch {
public:
    explicit CycleSearch(std::vector<ForwardEdge> edges)
        : edges_(std::move(edges)) {}

    void run(LintReport& report) {
        for (std::size_t start = 0; start < edges_.size() && !exhausted_;
             ++start) {
            start_ = start;
            in_path_.assign(edges_.size(), false);
            path_.clear();
            extend(start, PathConstraint{}, report);
        }
        if (exhausted_) {
            report.add("SCN002", "scenario topology",
                       "forwarding-cycle search truncated (topology too "
                       "large); remaining routes unchecked");
        }
    }

private:
    void extend(std::size_t edge_index, PathConstraint constraint,
                LintReport& report) {
        if (++steps_ > kMaxSteps) {
            exhausted_ = true;
            return;
        }
        const ForwardEdge& edge = edges_[edge_index];
        if (!constraint.compatible(edge)) {
            return;
        }
        const PathConstraint next = constraint.combined(edge);
        in_path_[edge_index] = true;
        path_.push_back(edge_index);
        if (edge.to == edges_[start_].from) {
            report_cycle(next, report);
        } else {
            for (std::size_t candidate = start_ + 1;
                 candidate < edges_.size() && !exhausted_; ++candidate) {
                if (!in_path_[candidate] &&
                    edges_[candidate].from == edge.to) {
                    extend(candidate, next, report);
                }
            }
        }
        path_.pop_back();
        in_path_[edge_index] = false;
    }

    void report_cycle(const PathConstraint& constraint, LintReport& report) {
        if (reported_ >= kMaxCycles) {
            exhausted_ = true;
            return;
        }
        ++reported_;
        std::string path = edges_[path_.front()].from;
        std::string via;
        for (std::size_t index : path_) {
            path += " -> " + edges_[index].to;
            if (via.find(edges_[index].label) == std::string::npos) {
                via += (via.empty() ? "" : ", ") + edges_[index].label;
            }
        }
        report.add("SCN002", "route " + via,
                   format("frames matching id 0x%x mask 0x%x circulate "
                          "forever: %s (gateways do not deduplicate)",
                          constraint.value, constraint.mask, path.c_str()));
    }

    static constexpr std::size_t kMaxSteps = 100'000;
    static constexpr std::size_t kMaxCycles = 8;

    std::vector<ForwardEdge> edges_;
    std::size_t start_ = 0;
    std::vector<bool> in_path_;
    std::vector<std::size_t> path_;
    std::size_t steps_ = 0;
    std::size_t reported_ = 0;
    bool exhausted_ = false;
};

std::string node_key(const std::string& vehicle, const std::string& bus) {
    return vehicle + ":" + bus;
}

void lint_vehicle_into(const VehicleShape& vehicle,
                       const std::set<std::string>& publishers,
                       LintReport& report) {
    const std::set<std::string> ecus{vehicle.ecus.begin(), vehicle.ecus.end()};
    const std::set<std::string> buses{vehicle.buses.begin(),
                                      vehicle.buses.end()};

    // SCN005: monitors and gateway routes must reference declared elements.
    for (const auto& monitor : vehicle.ecu_monitors) {
        if (!ecus.contains(monitor.ecu)) {
            report.add("SCN005",
                       format("vehicle %s / %s", vehicle.name.c_str(),
                              monitor.kind.c_str()),
                       "references undeclared ECU '" + monitor.ecu + "'");
        }
    }
    for (const auto& gateway : vehicle.gateways) {
        for (const auto& route : gateway.routes) {
            for (const std::string& bus : {route.from, route.to}) {
                if (!buses.contains(bus)) {
                    report.add("SCN005",
                               format("vehicle %s / gateway %s",
                                      vehicle.name.c_str(),
                                      gateway.name.c_str()),
                               "route references undeclared bus '" + bus +
                                   "'");
                }
            }
        }
        // SCN001: later routes fully subsumed by earlier ones.
        check_route_shadowing(vehicle.name, gateway, report);
    }

    // SCN006: a heartbeat can only trip or stay quiet for a source that
    // something actually feeds — a typo here means the monitor trips at
    // t=timeout forever.
    for (const std::string& watched : vehicle.heartbeat_watches) {
        if (!publishers.contains(watched)) {
            report.add("SCN006",
                       format("vehicle %s / heartbeat %s",
                              vehicle.name.c_str(), watched.c_str()),
                       "no sensor, raw task, component or vehicle publishes "
                       "'" + watched + "'");
        }
    }

    // LRN001: a learned monitor with nothing to track would assert at build
    // time (AnomalyModelMonitor REQUIREs at least one metric) — catch the
    // dead declaration statically.
    for (std::size_t i = 0; i < vehicle.learned_monitors.size(); ++i) {
        if (vehicle.learned_monitors[i].metric_count == 0) {
            report.add("LRN001",
                       format("vehicle %s / learned monitor %zu",
                              vehicle.name.c_str(), i),
                       "no tracked metrics after auto-resolution: declare "
                       "driving(), sensors or a skill graph before "
                       "learned_monitor(), or configure metrics explicitly");
        }
    }

    // SCN007: sensor-to-skill bindings must hit a data source or sink of
    // the configured graph (build() rejects any other binding).
    const std::set<std::string> nodes{vehicle.bindable_nodes.begin(),
                                      vehicle.bindable_nodes.end()};
    for (const auto& [sensor, node] : vehicle.sensor_skill_bindings) {
        if (node.empty()) {
            continue;
        }
        if (!vehicle.has_skill_graph) {
            report.add("SCN007",
                       format("vehicle %s / sensor %s", vehicle.name.c_str(),
                              sensor.c_str()),
                       "bound to skill node '" + node +
                           "' but the vehicle has no skill graph");
        } else if (!nodes.contains(node)) {
            report.add("SCN007",
                       format("vehicle %s / sensor %s", vehicle.name.c_str(),
                              sensor.c_str()),
                       "bound to '" + node +
                           "', which is not a data source or sink of the "
                           "vehicle's skill graph");
        }
    }
}

std::set<std::string> local_publishers(const VehicleShape& vehicle) {
    std::set<std::string> publishers;
    publishers.insert(vehicle.name);
    publishers.insert(vehicle.sensors.begin(), vehicle.sensors.end());
    publishers.insert(vehicle.raw_tasks.begin(), vehicle.raw_tasks.end());
    publishers.insert(vehicle.components.begin(), vehicle.components.end());
    return publishers;
}

} // namespace

LintReport lint_scenario(const ScenarioShape& scenario) {
    LintReport report;

    // Cross-vehicle heartbeats (watching a peer's publications) are
    // legitimate, so the publisher set is scenario-wide.
    std::set<std::string> publishers;
    for (const VehicleShape& vehicle : scenario.vehicles) {
        const auto local = local_publishers(vehicle);
        publishers.insert(local.begin(), local.end());
    }
    for (const VehicleShape& vehicle : scenario.vehicles) {
        lint_vehicle_into(vehicle, publishers, report);
    }

    // SCN004: the vehicles' domains come assigned; only a pin can lie
    // outside the declared domains.
    std::map<std::string, std::size_t> domain_of;
    for (const VehicleShape& vehicle : scenario.vehicles) {
        if (vehicle.domain >= scenario.num_domains) {
            report.add("SCN004", "vehicle " + vehicle.name,
                       format("pinned to domain %zu but the scenario "
                              "declares %zu domain(s)",
                              vehicle.domain, scenario.num_domains));
            continue;
        }
        domain_of[vehicle.name] = vehicle.domain;
    }

    // SCN003: a cross-domain link's forward latency becomes the ingress
    // domain's lookahead window — zero means the sharded kernel cannot
    // advance at all (BusGateway rejects it loudly, but only at build time).
    if (scenario.v2v_enabled && scenario.num_domains > 1 &&
        scenario.v2v_latency_ns <= 0) {
        report.add("SCN003", "v2v channel",
                   "zero latency with multiple domains leaves no lookahead "
                   "window");
    }

    // Bridge checks + the scenario-wide forwarding graph.
    std::map<std::string, const VehicleShape*> by_name;
    for (const VehicleShape& vehicle : scenario.vehicles) {
        by_name.emplace(vehicle.name, &vehicle);
    }
    std::vector<ForwardEdge> edges;
    for (const VehicleShape& vehicle : scenario.vehicles) {
        for (const auto& gateway : vehicle.gateways) {
            for (const auto& route : gateway.routes) {
                edges.push_back(ForwardEdge{
                    node_key(vehicle.name, route.from),
                    node_key(vehicle.name, route.to), route.id, route.mask,
                    "gateway " + vehicle.name + "/" + gateway.name});
            }
        }
    }
    for (const GatewayShape& bridge : scenario.bridges) {
        bool crosses_domains = false;
        for (const auto& route : bridge.routes) {
            // Bridge route keys are "vehicle:bus"; validate both endpoints.
            for (const std::string& endpoint : {route.from, route.to}) {
                const auto colon = endpoint.find(':');
                const std::string vehicle = endpoint.substr(0, colon);
                const std::string bus =
                    colon == std::string::npos ? std::string{}
                                               : endpoint.substr(colon + 1);
                auto it = by_name.find(vehicle);
                if (it == by_name.end()) {
                    report.add("SCN005", "bridge " + bridge.name,
                               "route references unknown vehicle '" + vehicle +
                                   "'");
                    continue;
                }
                const auto& known = it->second->buses;
                if (std::find(known.begin(), known.end(), bus) ==
                    known.end()) {
                    report.add("SCN005", "bridge " + bridge.name,
                               "route references undeclared bus '" + bus +
                                   "' of vehicle '" + vehicle + "'");
                }
            }
            const auto from_vehicle =
                route.from.substr(0, route.from.find(':'));
            const auto to_vehicle = route.to.substr(0, route.to.find(':'));
            auto from_domain = domain_of.find(from_vehicle);
            auto to_domain = domain_of.find(to_vehicle);
            if (from_domain != domain_of.end() && to_domain != domain_of.end() &&
                from_domain->second != to_domain->second) {
                crosses_domains = true;
            }
            edges.push_back(ForwardEdge{route.from, route.to, route.id,
                                        route.mask, "bridge " + bridge.name});
        }
        check_route_shadowing("(scenario)", bridge, report);
        if (crosses_domains && bridge.forward_latency_ns <= 0) {
            report.add("SCN003", "bridge " + bridge.name,
                       "crosses ECU domains with zero forward latency — the "
                       "ingress domain would have a zero lookahead window");
        }
    }

    // SCN002: forwarding cycles with simultaneously satisfiable filters.
    CycleSearch{std::move(edges)}.run(report);

    // LRN002: a warm-up at least as long as the declared run leaves the
    // learned monitor training forever — it never scores, never alarms, and
    // the scenario silently loses its anomaly coverage.
    if (scenario.duration_hint_ns > 0) {
        for (const VehicleShape& vehicle : scenario.vehicles) {
            for (std::size_t i = 0; i < vehicle.learned_monitors.size(); ++i) {
                const auto& learned = vehicle.learned_monitors[i];
                if (learned.warmup_ns >= scenario.duration_hint_ns) {
                    report.add(
                        "LRN002",
                        format("vehicle %s / learned monitor %zu",
                               vehicle.name.c_str(), i),
                        format("warm-up %.3fs >= declared duration %.3fs: "
                               "the monitor never leaves training",
                               static_cast<double>(learned.warmup_ns) / 1e9,
                               static_cast<double>(scenario.duration_hint_ns) /
                                   1e9));
                }
            }
        }
    }

    // MSH001/MSH002: static reachability of the V2V mesh under the declared
    // radio range. Edges join endpoints within range of each other; only
    // mesh endpoints relay, so interior nodes of a path must be mesh-capable
    // (plain v2v() endpoints hear frames but never forward them).
    if (scenario.v2v_enabled && scenario.v2v_range_m > 0.0) {
        struct MeshNode {
            std::string name;
            double position_m;
            bool is_mesh;
            std::uint32_t beacon_ttl;
        };
        std::vector<MeshNode> nodes;
        for (const VehicleShape& vehicle : scenario.vehicles) {
            if (vehicle.v2v_endpoint.has_value()) {
                nodes.push_back(MeshNode{
                    vehicle.name, vehicle.v2v_endpoint->position_m,
                    vehicle.v2v_endpoint->is_mesh,
                    vehicle.v2v_endpoint->beacon_ttl});
            }
        }
        constexpr std::uint32_t kUnreachable = 0xFFFFFFFFU;
        const auto hop_distances = [&](std::size_t from) {
            std::vector<std::uint32_t> dist(nodes.size(), kUnreachable);
            dist[from] = 0;
            std::vector<std::size_t> frontier{from};
            while (!frontier.empty()) {
                std::vector<std::size_t> next;
                for (const std::size_t u : frontier) {
                    if (u != from && !nodes[u].is_mesh) {
                        continue; // plain endpoints terminate paths
                    }
                    for (std::size_t v = 0; v < nodes.size(); ++v) {
                        if (dist[v] != kUnreachable ||
                            std::abs(nodes[v].position_m -
                                     nodes[u].position_m) >
                                scenario.v2v_range_m) {
                            continue;
                        }
                        dist[v] = dist[u] + 1;
                        next.push_back(v);
                    }
                }
                frontier = std::move(next);
            }
            return dist;
        };
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            const auto dist = hop_distances(i);
            std::uint32_t eccentricity = 0;
            for (std::size_t j = 0; j < nodes.size(); ++j) {
                if (j == i) {
                    continue;
                }
                if (dist[j] == kUnreachable) {
                    // Reachability is symmetric (same edges, same relay
                    // set), so one finding per unordered pair suffices.
                    if (i < j) {
                        report.add(
                            "MSH001",
                            format("v2v mesh / %s -> %s",
                                   nodes[i].name.c_str(),
                                   nodes[j].name.c_str()),
                            format("no relay path within radio range %.1fm "
                                   "(positions %.1fm and %.1fm): the "
                                   "endpoints can never exchange frames",
                                   scenario.v2v_range_m, nodes[i].position_m,
                                   nodes[j].position_m));
                    }
                } else if (dist[j] > eccentricity) {
                    eccentricity = dist[j];
                }
            }
            if (nodes[i].is_mesh && nodes[i].beacon_ttl < eccentricity) {
                report.add(
                    "MSH002", "v2v mesh / " + nodes[i].name,
                    format("beacon TTL %u is smaller than the endpoint's hop "
                           "eccentricity %u: its announcements never reach "
                           "the farthest members, which cannot learn a route "
                           "back to it",
                           nodes[i].beacon_ttl, eccentricity));
            }
        }
    }

    return report;
}

} // namespace sa::lint
