#pragma once
// Plain-data description of a scenario topology for the scenario-layer lint
// rules. ScenarioBuilder/VehicleBuilder fill these shapes from their private
// declaration state (VehicleBuilder::describe()); keeping the shapes
// std-only avoids a scenario <-> lint include cycle and lets tests fabricate
// broken topologies without touching a builder.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace sa::lint {

/// One directional forwarding rule. `from`/`to` are node keys: the plain bus
/// name inside a vehicle's gateway, "vehicle:bus" in a scenario bridge.
struct RouteShape {
    std::string from;
    std::string to;
    std::uint32_t id = 0;
    std::uint32_t mask = 0; ///< 0 forwards every frame
};

struct GatewayShape {
    std::string name;
    std::vector<RouteShape> routes;
    long long forward_latency_ns = 0;
};

/// An ECU-bound monitor declaration ("thermal_guard", "deadline_monitor",
/// "budget_monitor", "monitor_overhead").
struct MonitorRefShape {
    std::string kind;
    std::string ecu;
};

/// A learned anomaly monitor declaration after metric auto-resolution.
struct LearnedMonitorShape {
    std::size_t metric_count = 0;
    long long warmup_ns = 0;
};

/// A vehicle's V2V endpoint declaration (VehicleBuilder::v2v()/mesh()).
/// Plain endpoints hear frames but never relay; mesh endpoints run the full
/// MeshStack protocol and carry a beacon TTL (their announcement hop radius).
struct MeshEndpointShape {
    bool is_mesh = false;
    double position_m = 0.0;
    std::uint32_t beacon_ttl = 0; ///< 0 for plain (non-mesh) endpoints
};

struct VehicleShape {
    std::string name;
    /// The ECU domain the vehicle runs on: its pin, else its round-robin
    /// slot (ScenarioBuilder assigns both). Only a pin can be out of range.
    std::size_t domain = 0;
    std::vector<std::string> ecus;
    std::vector<std::string> buses;
    std::vector<std::string> sensors;
    std::vector<std::string> raw_tasks;
    std::vector<std::string> components; ///< parsed contract components
    std::vector<GatewayShape> gateways;
    std::vector<MonitorRefShape> ecu_monitors;
    std::vector<std::string> heartbeat_watches;
    bool has_skill_graph = false;
    /// The skill graph's data sources and sinks: the nodes a sensor's
    /// quality can feed.
    std::vector<std::string> bindable_nodes;
    /// (sensor name, bound skill node) for sensors with a non-empty binding.
    std::vector<std::pair<std::string, std::string>> sensor_skill_bindings;
    std::vector<LearnedMonitorShape> learned_monitors;
    std::optional<MeshEndpointShape> v2v_endpoint;
};

struct ScenarioShape {
    std::size_t num_domains = 1;
    std::vector<VehicleShape> vehicles; ///< declaration order (round-robin order)
    std::vector<GatewayShape> bridges;  ///< routes use "vehicle:bus" keys
    bool v2v_enabled = false;
    long long v2v_latency_ns = 0;
    /// Hard radio range of the medium in meters; 0 = unlimited (MSH001/002
    /// only fire on a finite range).
    double v2v_range_m = 0.0;
    /// Intended run length (ScenarioBuilder::duration_hint()); 0 = unknown.
    long long duration_hint_ns = 0;
};

} // namespace sa::lint
