#pragma once
// VehicleBuilder: declarative assembly of one self-aware vehicle. Declare
// the platform (ECUs, CAN buses, gateways), the contract set, monitors,
// the skill graph, degradation tactics and the layer stack; build()
// composes everything on a simulator in one canonical order (documented at
// build()) so every example, bench and test constructs vehicles the same
// way — construction order stops being implicit call-site knowledge.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "learn/anomaly_model_monitor.hpp"
#include "lint/scenario_shape.hpp"
#include "monitor/budget_monitor.hpp"
#include "scenario/scenario.hpp"
#include "skills/capability_registry.hpp"
#include "skills/degradation_policy.hpp"
#include "skills/skill_graph_spec.hpp"

namespace sa::scenario {

/// How build() reacts to the MCC rejecting the declared contract set.
enum class IntegrationPolicy {
    RequireAccepted, ///< SA_REQUIRE acceptance (default: a typo is a bug)
    ReportOnly,      ///< keep the report, skip deployment when rejected
};

/// One ECU declaration — feeds both the model domain (EcuDescriptor for the
/// MCC's platform model) and the execution domain (rte::EcuConfig), which
/// previously had to be kept in sync by hand at every call site.
struct EcuSpec {
    model::EcuDescriptor model;
    /// Absolute DVFS speed factors, fastest first (level 0 = full speed).
    std::vector<double> dvfs_levels{1.0, 0.8, 0.6, 0.4};
    rte::ThermalConfig thermal{};
};

/// A directional bus-to-bus forwarding rule of a BusGateway.
struct GatewayRoute {
    std::string from_bus;
    std::string to_bus;
    std::uint32_t id = 0;
    std::uint32_t mask = 0; ///< 0 forwards every frame
};

/// A named gateway joining two or more buses (can::BusGateway).
struct GatewaySpec {
    std::string name;
    std::vector<GatewayRoute> routes;
    sim::Duration forward_latency = sim::Duration::us(20);
};

class VehicleBuilder {
public:
    explicit VehicleBuilder(std::string name = "ego");

    [[nodiscard]] const std::string& name() const noexcept { return name_; }

    // --- sharding -----------------------------------------------------------
    /// Pin this vehicle (all its buses, ECUs and periodics) to one ECU
    /// domain of a sharded scenario (ScenarioBuilder::domains(n)). Without a
    /// pin, vehicles are assigned round-robin in declaration order.
    VehicleBuilder& domain(std::size_t index);
    [[nodiscard]] std::optional<std::size_t> assigned_domain() const noexcept {
        return domain_;
    }

    // --- platform -----------------------------------------------------------
    /// ECU with default DVFS ladder and thermal model.
    VehicleBuilder& ecu(model::EcuDescriptor descriptor);
    /// ECU with explicit DVFS ladder (absolute speed factors, fastest first)
    /// and thermal model.
    VehicleBuilder& ecu(model::EcuDescriptor descriptor, std::vector<double> dvfs_levels,
                        rte::ThermalConfig thermal = {});
    /// CAN bus, running at the descriptor's bitrate.
    VehicleBuilder& can_bus(model::BusDescriptor descriptor);
    VehicleBuilder& can_gateway(GatewaySpec spec);

    // --- model domain -------------------------------------------------------
    /// Contract-language source, appended to the initial change request.
    VehicleBuilder& contracts(std::string_view text);
    VehicleBuilder& integration_policy(IntegrationPolicy policy);

    // --- raw platform tasks (benchmarks, CAN-driven chains) ----------------
    /// A task registered directly with the ECU's scheduler, outside any
    /// contract. Addressable later via Vehicle::rt_task(ecu, name).
    VehicleBuilder& rt_task(std::string ecu_name, rte::RtTaskConfig task);
    /// Transmit `frame` on `bus` every time the raw task completes.
    VehicleBuilder& can_tx_on_completion(std::string ecu_name, std::string task,
                                         std::string bus, can::CanFrame frame);
    /// Release the raw (sporadic) task whenever a frame matching (id & mask)
    /// arrives on `bus`.
    VehicleBuilder& can_rx_activation(std::string ecu_name, std::string task,
                                      std::string bus, std::uint32_t id,
                                      std::uint32_t mask);

    // --- monitors (created in declaration order) ---------------------------
    /// Rate-based intrusion detection on the service registry, bounds wired
    /// from the MCC's derived security policy. 0 = no default bound.
    VehicleBuilder& rate_ids(sim::Duration window = sim::Duration::ms(100),
                             double default_bound = 0.0);
    /// Over-temperature guard: a Platform-domain RangeMonitor watching
    /// "temp.<ecu>" fed from the ECU's thermal model.
    VehicleBuilder& thermal_guard(std::string ecu_name, double lo_c = -40.0,
                                  double hi_c = 85.0,
                                  monitor::Severity severity = monitor::Severity::Critical);
    VehicleBuilder& deadline_monitor(std::string ecu_name);
    /// Budget monitor over the ECU's scheduler; `budget` (if non-zero) is
    /// applied to every raw task declared on that ECU, regardless of
    /// declaration order relative to this call.
    VehicleBuilder& budget_monitor(std::string ecu_name, monitor::BudgetMode mode,
                                   sim::Duration budget = sim::Duration::zero());
    VehicleBuilder& heartbeat_monitor(std::string watched, sim::Duration timeout);
    /// Model the monitoring cost itself as a periodic RTE task.
    VehicleBuilder& monitor_overhead_task(std::string ecu_name, sim::Duration period,
                                          sim::Duration wcet, int priority);
    /// Online learned anomaly model over the vehicle's metric stream
    /// (learn::AnomalyModelMonitor). With auto_metrics (the default) the
    /// tracked metrics resolve from the declarations — drive.gap and
    /// drive.speed when driving() is declared, sensor.<name> per declared
    /// sensor, skill.<root> when a skill graph is declared — and build()
    /// schedules a 50 ms metric pump feeding them into the
    /// monitor manager. Explicitly configured metrics are pumped when they
    /// match one of those feeds and otherwise expected from external
    /// producers (thermal signals, ad-hoc ingest() calls).
    VehicleBuilder& learned_monitor(learn::LearnedMonitorConfig config = {});
    /// Tracked metric names of `config` after auto-resolution against this
    /// builder's declarations (the lint surface for rule LRN001).
    [[nodiscard]] std::vector<std::string>
    resolved_learned_metrics(const learn::LearnedMonitorConfig& config) const;

    // --- skills / degradation ----------------------------------------------
    /// Instantiate `spec` (with its aggregation choices and dependency
    /// weights) at build time. The root skill comes from the spec, which
    /// must declare one. A later call replaces an earlier one. Vehicles
    /// declared with one spec share it and its compiled graph.
    VehicleBuilder& skill_graph(std::shared_ptr<const skills::SkillGraphSpec> spec);
    /// Instantiate a spec registered in `registry` by name (the builtin
    /// catalogue by default): `skill_graph("acc")` is the paper's §IV ACC
    /// graph, `skill_graph("platoon_follow")` the platoon maneuver.
    VehicleBuilder& skill_graph(const std::string& registry_spec_name,
                                const skills::CapabilityRegistry& registry =
                                    skills::CapabilityRegistry::builtin());
    /// Route every monitor alarm of this vehicle through `policy` into the
    /// ability graph (capability-quality downgrades via the registry's alarm
    /// bindings plus the policy's own rules) — the unified degradation flow
    /// consumed by the coordinator's ability layer and the self-model.
    /// Requires a skill graph.
    VehicleBuilder& degradation_policy(skills::DegradationPolicy policy);
    /// A degradation tactic whose action receives the built vehicle.
    using VehicleTactic = std::function<void(Vehicle&)>;
    VehicleBuilder& tactic(std::string name, std::string target_skill,
                           double min_level, double max_level, int cost,
                           VehicleTactic apply);
    /// Re-plan tactics from the current ability state every `period`.
    VehicleBuilder& plan_tactics_every(sim::Duration period);

    // --- layer stack --------------------------------------------------------
    /// Layers to register, bottom-up; default none. Ability requires a
    /// configured skill graph.
    VehicleBuilder& layers(std::vector<core::LayerId> which);
    /// All five layers (Ability included only when skills are configured).
    VehicleBuilder& full_layer_stack();
    VehicleBuilder& coordinator(core::CoordinatorConfig config);
    /// Ability-update hook: maps anomalies onto ability-graph inputs before
    /// the ability layer plans (see core::AbilityLayer::set_update_hook).
    using UpdateHook = std::function<bool(Vehicle&, const core::Problem&)>;
    VehicleBuilder& ability_update_hook(UpdateHook hook);
    VehicleBuilder& self_model(sim::Duration period);

    // --- V2V mesh -----------------------------------------------------------
    /// A plain endpoint and a full mesh stack on the scenario's radio medium
    /// (requires ScenarioBuilder::v2v()). Exactly one of the two per vehicle.
    struct V2vEndpointSpec {
        bool is_mesh = false;
        mesh::MeshConfig config{};
        double position_m = 0.0;
    };
    /// Attach this vehicle to the V2V medium at `position_m` as a plain
    /// endpoint: it hears frames (and counts toward deliveries/losses) but
    /// runs no protocol. For a custom receiver, skip this declaration and
    /// call Medium::attach(name, home, receiver) on the built scenario.
    VehicleBuilder& v2v(double position_m = 0.0);
    /// Give this vehicle a mesh::MeshStack protocol endpoint at
    /// `position_m`: neighbor table, TTL'd self-announcements and multi-hop
    /// CAM relay under `config`. Reachable as Scenario::mesh(name).
    VehicleBuilder& mesh(mesh::MeshConfig config = {}, double position_m = 0.0);
    [[nodiscard]] const std::optional<V2vEndpointSpec>&
    v2v_endpoint() const noexcept {
        return v2v_endpoint_;
    }

    // --- closed-loop driving ------------------------------------------------
    VehicleBuilder& driving(vehicle::ScenarioConfig config);
    /// Range sensor on the driving loop; with a quality config a
    /// SensorQualityMonitor is attached (and bound to `skill_node`, a data
    /// source or sink of the skill graph, when non-empty).
    VehicleBuilder& sensor(vehicle::SensorConfig sensor);
    VehicleBuilder& sensor(vehicle::SensorConfig sensor,
                           monitor::SensorQualityConfig quality,
                           std::string skill_node = {});
    VehicleBuilder& lead_profile(vehicle::LeadProfile profile);

    // --- model-domain-only products (benchmarks, analyses) -----------------
    /// The declared platform as the MCC sees it.
    [[nodiscard]] model::PlatformModel platform_model() const;
    /// The declared contracts as the initial change request.
    [[nodiscard]] model::ChangeRequest change_request() const;
    /// The declared contract text, as change_request() parses it.
    [[nodiscard]] const std::string& contract_text() const noexcept {
        return contract_text_;
    }

    // --- lint surface -------------------------------------------------------
    /// Fill `shape` with this vehicle's declared topology for the
    /// scenario-layer lint rules; `contracts` is its parsed contract text,
    /// whose components the shape lists. ScenarioBuilder::lint() parses the
    /// text once and passes no contracts when it fails to parse (TXT001).
    void describe(lint::VehicleShape& shape,
                  const std::vector<model::Contract>& contracts) const;
    /// The declarative skill-graph spec; null when none was configured.
    [[nodiscard]] const std::shared_ptr<const skills::SkillGraphSpec>&
    skill_spec() const noexcept {
        return skill_spec_;
    }
    /// The configured degradation policy, when one was declared.
    [[nodiscard]] const std::optional<skills::DegradationPolicy>&
    declared_degradation_policy() const noexcept {
        return degradation_policy_;
    }

    /// Compose the vehicle on `simulator`. Canonical assembly order:
    ///   1. model domain: MCC + integration of the declared contracts (one
    ///      analysis per process for each distinct platform model and
    ///      contract text; later vehicles copy it, model::integrate_declared)
    ///   2. execution domain: ECUs, buses, gateways, raw tasks, CAN
    ///      bindings, deployment of the accepted configuration, rte.start()
    ///   3. monitors, in declaration order (IDS bounds from the MCC policy)
    ///   4. driving loop + sensors + quality monitors (created, not started)
    ///   5. ability graph: aggregation, weights, sensor bindings
    ///   6. tactics + the periodic tactic planner
    ///   7. quality monitors started, then the driving loop (plus the
    ///      learned monitor's metric pump, when one was declared)
    ///   8. coordinator: layer stack, connect to the monitor stream
    ///   9. self-model capture
    [[nodiscard]] std::unique_ptr<Vehicle> build(sim::Simulator& simulator) const;

private:
    struct RawTaskSpec {
        std::string ecu;
        rte::RtTaskConfig task;
    };
    struct CanTxSpec {
        std::string ecu;
        std::string task;
        std::string bus;
        can::CanFrame frame;
    };
    struct CanRxSpec {
        std::string ecu;
        std::string task;
        std::string bus;
        std::uint32_t id;
        std::uint32_t mask;
    };
    struct RateIdsDecl {
        sim::Duration window;
        double default_bound;
    };
    struct ThermalGuardDecl {
        std::string ecu;
        double lo;
        double hi;
        monitor::Severity severity;
    };
    struct DeadlineDecl {
        std::string ecu;
    };
    struct BudgetDecl {
        std::string ecu;
        monitor::BudgetMode mode;
        sim::Duration budget;
    };
    struct HeartbeatDecl {
        std::string watched;
        sim::Duration timeout;
    };
    struct OverheadDecl {
        std::string ecu;
        sim::Duration period;
        sim::Duration wcet;
        int priority;
    };
    struct LearnedDecl {
        learn::LearnedMonitorConfig config;
    };
    using MonitorDecl = std::variant<RateIdsDecl, ThermalGuardDecl, DeadlineDecl,
                                     BudgetDecl, HeartbeatDecl, OverheadDecl,
                                     LearnedDecl>;
    struct TacticSpec {
        std::string name;
        std::string target_skill;
        double min_level;
        double max_level;
        int cost;
        VehicleTactic apply;
    };
    struct SensorSpec {
        vehicle::SensorConfig config;
        std::optional<monitor::SensorQualityConfig> quality;
        std::string skill_node;
    };

    void build_monitors(Vehicle& vehicle) const;
    void require_unique_sensor(const std::string& name) const;

    std::string name_;
    std::optional<std::size_t> domain_;
    std::vector<EcuSpec> ecus_;
    std::vector<model::BusDescriptor> buses_;
    std::vector<GatewaySpec> gateways_;
    std::string contract_text_;
    IntegrationPolicy policy_ = IntegrationPolicy::RequireAccepted;
    std::vector<RawTaskSpec> raw_tasks_;
    std::vector<CanTxSpec> can_tx_;
    std::vector<CanRxSpec> can_rx_;
    std::vector<MonitorDecl> monitor_decls_;
    std::shared_ptr<const skills::SkillGraphSpec> skill_spec_;
    std::optional<skills::DegradationPolicy> degradation_policy_;
    std::vector<TacticSpec> tactics_;
    std::optional<sim::Duration> tactic_plan_period_;
    std::vector<core::LayerId> layers_;
    core::CoordinatorConfig coordinator_config_{};
    UpdateHook update_hook_;
    std::optional<sim::Duration> self_model_period_;
    std::optional<vehicle::ScenarioConfig> driving_;
    std::vector<SensorSpec> sensors_;
    vehicle::LeadProfile lead_profile_;
    std::optional<V2vEndpointSpec> v2v_endpoint_;
};

} // namespace sa::scenario
