#include "vehicle/route_planner.hpp"

#include <algorithm>
#include <limits>
#include <queue>

#include "util/assert.hpp"

namespace sa::vehicle {

namespace {
constexpr double kImpassablePenaltyMinutes = 240.0;
}

double RoadEdge::nominal_minutes() const {
    SA_REQUIRE(nominal_speed_kmh > 0.0, "nominal speed must be positive");
    return length_km / nominal_speed_kmh * 60.0;
}

double RoadEdge::expected_minutes() const {
    const double nominal = nominal_minutes();
    double degraded;
    if (degraded_speed_factor <= 0.0) {
        degraded = nominal + kImpassablePenaltyMinutes;
    } else {
        degraded = nominal / degraded_speed_factor;
    }
    return (1.0 - degradation_prob) * nominal + degradation_prob * degraded;
}

double RoadEdge::worst_case_minutes() const {
    if (degradation_prob <= 0.0) {
        return nominal_minutes();
    }
    if (degraded_speed_factor <= 0.0) {
        return nominal_minutes() + kImpassablePenaltyMinutes;
    }
    return nominal_minutes() / degraded_speed_factor;
}

void RoutePlanner::add_road(RoadEdge edge) {
    SA_REQUIRE(!edge.from.empty() && !edge.to.empty(), "road needs endpoints");
    SA_REQUIRE(edge.degradation_prob >= 0.0 && edge.degradation_prob <= 1.0,
               "degradation_prob must be a probability");
    edges_.push_back(edge);
}

double RoutePlanner::edge_cost(const RoadEdge& edge, double risk_aversion) const {
    const double nominal = edge.nominal_minutes();
    const double expected = edge.expected_minutes();
    const double worst = edge.worst_case_minutes();
    if (risk_aversion <= 0.0) {
        return nominal;
    }
    if (risk_aversion <= 1.0) {
        return nominal + risk_aversion * (expected - nominal);
    }
    const double beyond = std::min(risk_aversion - 1.0, 1.0);
    return expected + beyond * (worst - expected);
}

Route RoutePlanner::plan(const std::string& from, const std::string& to,
                         double risk_aversion) const {
    Route route;

    // Dijkstra over the chosen cost.
    std::map<std::string, double> dist;
    std::map<std::string, std::string> prev;
    using QueueEntry = std::pair<double, std::string>;
    std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>> queue;
    dist[from] = 0.0;
    queue.push({0.0, from});

    while (!queue.empty()) {
        const auto [d, node] = queue.top();
        queue.pop();
        if (d > dist[node]) {
            continue;
        }
        if (node == to) {
            break;
        }
        for (const auto& e : edges_) {
            std::string next;
            if (e.from == node) {
                next = e.to;
            } else if (e.to == node) {
                next = e.from;
            } else {
                continue;
            }
            const double cost = d + edge_cost(e, risk_aversion);
            auto it = dist.find(next);
            if (it == dist.end() || cost < it->second) {
                dist[next] = cost;
                prev[next] = node;
                queue.push({cost, next});
            }
        }
    }

    if (!dist.contains(to)) {
        return route; // unreachable
    }

    // Reconstruct waypoints.
    std::vector<std::string> path;
    for (std::string node = to; node != from; node = prev.at(node)) {
        path.push_back(node);
    }
    path.push_back(from);
    std::reverse(path.begin(), path.end());
    route.waypoints = std::move(path);
    route.found = true;

    // Accumulate the three cost figures along the chosen path.
    for (std::size_t i = 0; i + 1 < route.waypoints.size(); ++i) {
        const std::string& a = route.waypoints[i];
        const std::string& b = route.waypoints[i + 1];
        const RoadEdge* best = nullptr;
        for (const auto& e : edges_) {
            const bool matches =
                (e.from == a && e.to == b) || (e.from == b && e.to == a);
            if (matches &&
                (best == nullptr ||
                 edge_cost(e, risk_aversion) < edge_cost(*best, risk_aversion))) {
                best = &e;
            }
        }
        SA_ASSERT(best != nullptr, "path edge vanished during reconstruction");
        route.nominal_minutes += best->nominal_minutes();
        route.expected_minutes += best->expected_minutes();
        route.worst_case_minutes += best->worst_case_minutes();
    }
    return route;
}

RoutePlanner make_alpine_example(double winter_severity) {
    SA_REQUIRE(winter_severity >= 0.0 && winter_severity <= 1.0,
               "winter severity must be within [0,1]");
    RoutePlanner planner;
    // Direct route over the pass: short but weather-exposed.
    planner.add_road(RoadEdge{"home", "pass_foot", 20.0, 90.0, 0.0, 1.0});
    planner.add_road(
        RoadEdge{"pass_foot", "pass_summit", 15.0, 60.0, 0.6 * winter_severity, 0.25});
    planner.add_road(
        RoadEdge{"pass_summit", "destination", 15.0, 60.0, 0.6 * winter_severity, 0.25});
    // Valley detour: twice as long but robust.
    planner.add_road(RoadEdge{"home", "valley_a", 35.0, 100.0, 0.05 * winter_severity, 0.8});
    planner.add_road(
        RoadEdge{"valley_a", "valley_b", 40.0, 100.0, 0.05 * winter_severity, 0.8});
    planner.add_road(
        RoadEdge{"valley_b", "destination", 30.0, 100.0, 0.05 * winter_severity, 0.8});
    return planner;
}

} // namespace sa::vehicle
