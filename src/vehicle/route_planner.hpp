#pragma once
// Risk-aware route planning under weather uncertainty (§V: "if the system
// was aware that its systems may degrade on a certain route due to possible
// weather influences, it could plan alternative routes ... whether it plans
// a (possibly shorter) route across an alpine pass in winter or whether it
// is advantageous to take a longer detour without risking degraded
// performance").
//
// Roads form a weighted graph; each edge carries a length, a nominal speed
// and a weather forecast (probability that conditions degrade the vehicle,
// and the slowdown factor if they do). The planner minimizes *expected* cost
// with a configurable risk aversion; an infinitely risk-averse planner only
// counts the worst case.

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace sa::vehicle {

struct RoadEdge {
    std::string from;
    std::string to;
    double length_km = 1.0;
    double nominal_speed_kmh = 100.0;
    /// Forecast: probability the segment is weather-degraded ...
    double degradation_prob = 0.0;
    /// ... and the speed factor that then applies (0.5 => half speed). A
    /// factor of 0 marks an impassable segment when degraded.
    double degraded_speed_factor = 1.0;

    [[nodiscard]] double nominal_minutes() const;
    /// Expected traversal time given the forecast (minutes). Impassable-when-
    /// degraded segments contribute a large penalty scaled by probability.
    [[nodiscard]] double expected_minutes() const;
    /// Worst-case traversal time (minutes).
    [[nodiscard]] double worst_case_minutes() const;
};

struct Route {
    std::vector<std::string> waypoints;
    double nominal_minutes = 0.0;
    double expected_minutes = 0.0;
    double worst_case_minutes = 0.0;
    bool found = false;
};

class RoutePlanner {
public:
    void add_road(RoadEdge edge); ///< bidirectional

    /// risk_aversion = 0: plan on nominal times (weather-blind baseline).
    /// risk_aversion = 1: plan on expected times (self-aware).
    /// risk_aversion > 1: interpolate towards worst case.
    [[nodiscard]] Route plan(const std::string& from, const std::string& to,
                             double risk_aversion = 1.0) const;

    [[nodiscard]] std::size_t edge_count() const noexcept { return edges_.size(); }

private:
    [[nodiscard]] double edge_cost(const RoadEdge& edge, double risk_aversion) const;

    std::vector<RoadEdge> edges_;
};

/// The paper's example network: a short alpine pass (fast when clear, likely
/// blocked in winter) versus a longer valley detour.
[[nodiscard]] RoutePlanner make_alpine_example(double winter_severity);

} // namespace sa::vehicle
