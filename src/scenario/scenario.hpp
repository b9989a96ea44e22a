#pragma once
// sa::scenario — the sanctioned composition root. A Vehicle owns one
// composed self-aware stack (model domain, execution domain, monitors,
// layer stack, skills, optional closed-loop driving); a Scenario owns the
// simulation kernel plus N vehicles and the cooperation substrate (trust,
// V2V, platoon formation) and exposes a single run()/report() surface.
//
// Both are produced by the builders (vehicle_builder.hpp,
// scenario_builder.hpp); examples, benches and tests compose systems there
// instead of hand-wiring subsystems. The paper's pitch — responding "without
// the need to anticipate the exact situation at design time" — only pays off
// if *situations* are cheap to write down; this API is that surface.

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "can/bus_gateway.hpp"
#include "core/coordinator.hpp"
#include "core/objective_layer.hpp"
#include "core/platform_layer.hpp"
#include "core/self_model.hpp"
#include "learn/anomaly_model_monitor.hpp"
#include "mesh/mesh_stack.hpp"
#include "model/mcc.hpp"
#include "monitor/range_monitor.hpp"
#include "monitor/rate_monitor.hpp"
#include "monitor/sensor_quality_monitor.hpp"
#include "platoon/platoon.hpp"
#include "rte/can_gateway.hpp"
#include "rte/fault_injection.hpp"
#include "rte/rte.hpp"
#include "sim/sharded_kernel.hpp"
#include "skills/ability_graph.hpp"
#include "skills/degradation.hpp"
#include "skills/degradation_policy.hpp"
#include "vehicle/vehicle_sim.hpp"

namespace sa::scenario {

class VehicleBuilder;
class ScenarioBuilder;

/// Per-vehicle slice of a ScenarioReport.
struct VehicleReport {
    std::string name;
    std::uint64_t jobs_completed = 0;
    std::uint64_t deadline_misses = 0;
    std::uint64_t anomalies = 0;
    std::uint64_t problems_handled = 0;
    std::uint64_t problems_resolved = 0;
    std::optional<core::SelfSnapshot> self;

    [[nodiscard]] std::string str() const;
};

/// Aggregate counters at report() time, one entry per vehicle in
/// declaration order.
struct ScenarioReport {
    sim::Time at;
    std::vector<VehicleReport> vehicles;

    [[nodiscard]] const VehicleReport& vehicle(const std::string& name) const;
    [[nodiscard]] std::string str() const;
};

/// One composed self-aware vehicle. Owns its subsystems; typed accessors
/// REQUIRE the corresponding builder declaration (use the has_*() probes
/// when a subsystem is optional in your scenario).
class Vehicle {
public:
    /// Stops every periodic activity this vehicle registered on the
    /// simulator (tactic planner, self-model capture, driving loop, the
    /// RTE's schedulers and thermal models), so a Vehicle built on an
    /// externally owned simulator can be destroyed while the simulator
    /// keeps running.
    ~Vehicle();

    Vehicle(const Vehicle&) = delete;
    Vehicle& operator=(const Vehicle&) = delete;

    [[nodiscard]] sim::Simulator& simulator() noexcept { return simulator_; }

    // --- model domain -------------------------------------------------------
    [[nodiscard]] model::Mcc& mcc();
    /// Report of the build-time integration of the declared contracts, shared
    /// by the vehicles declared the same way (empty without contracts).
    [[nodiscard]] const model::IntegrationReport& integration_report() const noexcept {
        static const model::IntegrationReport none;
        return integration_report_ != nullptr ? *integration_report_ : none;
    }
    /// Run-time change management: integrate a contract-language update and,
    /// when accepted, deploy the new configuration to the running RTE.
    model::IntegrationReport integrate(const std::string& description,
                                       std::string_view contract_text);
    model::IntegrationReport integrate(const model::ChangeRequest& change);

    // --- execution domain ---------------------------------------------------
    [[nodiscard]] rte::Rte& rte() noexcept { return *rte_; }
    [[nodiscard]] rte::FaultInjector& faults() noexcept { return *faults_; }
    [[nodiscard]] bool has_bus_gateway(const std::string& name) const;
    [[nodiscard]] can::BusGateway& bus_gateway(const std::string& name);
    /// CAN endpoint (task <-> frame binding) on (ecu, bus); created by the
    /// builder's can_tx_on_completion()/can_rx_activation() declarations.
    [[nodiscard]] rte::CanGateway& can_endpoint(const std::string& ecu,
                                                const std::string& bus);
    /// Task id of a task declared via VehicleBuilder::rt_task().
    [[nodiscard]] rte::TaskId rt_task(const std::string& ecu,
                                      const std::string& task) const;

    // --- monitors -----------------------------------------------------------
    [[nodiscard]] monitor::MonitorManager& monitors() noexcept { return *monitors_; }
    [[nodiscard]] bool has_ids() const noexcept { return ids_ != nullptr; }
    [[nodiscard]] monitor::SensorQualityMonitor& sensor_quality(const std::string& sensor);
    /// Learned anomaly monitor (declared via
    /// VehicleBuilder::learned_monitor()).
    [[nodiscard]] bool has_learned_monitor() const noexcept {
        return learned_ != nullptr;
    }
    [[nodiscard]] learn::AnomalyModelMonitor& learned_monitor();

    // --- skills / degradation ----------------------------------------------
    [[nodiscard]] bool has_abilities() const noexcept { return abilities_ != nullptr; }
    [[nodiscard]] skills::AbilityGraph& abilities();
    [[nodiscard]] skills::DegradationManager& tactics() noexcept { return tactics_; }
    /// Unified degradation flow (declared via
    /// VehicleBuilder::degradation_policy()): every monitor alarm is mapped
    /// onto capability-quality downgrades of the ability graph.
    [[nodiscard]] bool has_degradation_policy() const noexcept {
        return policy_ != nullptr;
    }
    [[nodiscard]] skills::DegradationPolicy& degradation_policy();
    /// Root skill of the configured skill graph (empty when none).
    [[nodiscard]] const std::string& root_skill() const noexcept { return root_skill_; }

    // --- layer stack --------------------------------------------------------
    [[nodiscard]] core::CrossLayerCoordinator& coordinator() noexcept {
        return *coordinator_;
    }
    [[nodiscard]] core::ObjectiveLayer& objective_layer();
    [[nodiscard]] core::PlatformLayer& platform_layer();
    [[nodiscard]] bool has_self_model() const noexcept { return self_ != nullptr; }
    [[nodiscard]] core::SelfModel& self_model();

    // --- vehicle dynamics ---------------------------------------------------
    [[nodiscard]] bool has_driving() const noexcept { return driving_ != nullptr; }
    [[nodiscard]] vehicle::VehicleSim& driving();
    /// ACC controller: the driving loop's controller when closed-loop
    /// driving is configured, a standalone instance otherwise.
    [[nodiscard]] vehicle::AccController& acc() noexcept;
    [[nodiscard]] vehicle::BrakeByWire& brakes() noexcept;

    [[nodiscard]] VehicleReport report() const;

private:
    friend class VehicleBuilder;
    Vehicle(std::string name, sim::Simulator& simulator);

    std::string name_;
    sim::Simulator& simulator_;
    std::shared_ptr<const model::IntegrationReport> integration_report_;
    std::unique_ptr<model::Mcc> mcc_;
    std::unique_ptr<rte::Rte> rte_;
    std::unique_ptr<rte::FaultInjector> faults_;
    std::map<std::string, std::unique_ptr<can::BusGateway>> bus_gateways_;
    std::map<std::pair<std::string, std::string>, std::unique_ptr<rte::CanGateway>>
        can_endpoints_;
    std::map<std::pair<std::string, std::string>, rte::TaskId> raw_tasks_;
    std::unique_ptr<monitor::MonitorManager> monitors_;
    monitor::RateMonitor* ids_ = nullptr;             ///< owned by monitors_
    monitor::RangeMonitor* thermal_guard_ = nullptr;  ///< owned by monitors_
    std::map<std::string, monitor::SensorQualityMonitor*> sensor_quality_;
    learn::AnomalyModelMonitor* learned_ = nullptr; ///< owned by monitors_
    std::uint64_t learned_pump_id_ = 0;             ///< periodic handle; 0 = none
    std::unique_ptr<skills::AbilityGraph> abilities_;
    std::unique_ptr<skills::DegradationPolicy> policy_;
    std::string root_skill_;
    skills::DegradationManager tactics_;
    std::uint64_t tactic_planner_id_ = 0; ///< periodic handle; 0 = none
    std::unique_ptr<vehicle::VehicleSim> driving_;
    vehicle::BrakeByWire brakes_;
    vehicle::AccController acc_;
    std::unique_ptr<core::CrossLayerCoordinator> coordinator_;
    core::ObjectiveLayer* objective_ = nullptr; ///< owned by coordinator_
    std::unique_ptr<core::SelfModel> self_;
};

/// A composed scenario: the sharded simulation kernel (one ECU domain
/// unless the builder declared domains(n)), its vehicles and the
/// cooperation substrate, behind one run()/report() surface.
class Scenario {
public:
    Scenario(const Scenario&) = delete;
    Scenario& operator=(const Scenario&) = delete;

    /// The control simulator: domain 0 of the kernel, which runs on the
    /// thread that calls run(). Events scheduled here before run() (beacon
    /// drivers, measurement probes) behave identically at every domain
    /// count.
    [[nodiscard]] sim::Simulator& simulator() { return kernel_.domain(0); }
    /// True when the builder partitioned the scenario into > 1 ECU domains.
    [[nodiscard]] bool sharded() const noexcept { return num_domains() > 1; }
    /// The kernel every vehicle runs on.
    [[nodiscard]] sim::ShardedKernel& kernel() noexcept { return kernel_; }
    /// Number of ECU domains (ScenarioBuilder::domains(), 1 by default).
    [[nodiscard]] std::size_t num_domains() const noexcept {
        return kernel_.num_domains();
    }
    /// Scenario-level RNG (platoon formation, ad-hoc noise), seeded with the
    /// builder seed. It is a separate engine but not a separate stream:
    /// domain 0's Simulator::rng() is seeded with the same seed, so both
    /// draw the same sequence.
    [[nodiscard]] RandomEngine& rng() noexcept { return rng_; }

    [[nodiscard]] bool has_vehicle(const std::string& name) const;
    [[nodiscard]] Vehicle& vehicle(const std::string& name);
    /// The single vehicle of a one-vehicle scenario.
    [[nodiscard]] Vehicle& only_vehicle();
    [[nodiscard]] const std::vector<std::string>& vehicle_names() const noexcept {
        return order_;
    }

    // --- cooperation substrate ---------------------------------------------
    [[nodiscard]] platoon::TrustManager& trust() noexcept { return trust_; }
    [[nodiscard]] bool has_v2v() const noexcept { return v2v_ != nullptr; }
    /// The shared radio substrate (ScenarioBuilder::v2v()). Custom receivers
    /// attach here directly: v2v().attach(name, vehicle(name).simulator(),
    /// receiver) — one surface, no implicit home rule.
    [[nodiscard]] v2v::Medium& v2v();
    /// The mesh protocol endpoint of `vehicle` (VehicleBuilder::mesh()).
    [[nodiscard]] bool has_mesh(const std::string& vehicle) const;
    [[nodiscard]] mesh::MeshStack& mesh(const std::string& vehicle);

    // --- cross-vehicle bridges ---------------------------------------------
    /// Scenario-level CAN gateway declared via ScenarioBuilder::bridge():
    /// joins buses of different vehicles (cross-domain when sharded).
    [[nodiscard]] can::BusGateway& bridge(const std::string& name);
    /// Form a platoon from the builder-declared candidates (or an explicit
    /// list), gated by the shared TrustManager, drawing from rng().
    [[nodiscard]] platoon::PlatoonAgreement form_platoon();
    [[nodiscard]] platoon::PlatoonAgreement
    form_platoon(const std::vector<platoon::MemberCapability>& candidates);

    // --- managed platoon + automatic maneuvers ------------------------------
    /// True when the builder declared platoon_maneuvers(policy).
    [[nodiscard]] bool has_platoon() const noexcept { return platoon_ != nullptr; }
    /// The managed platoon (join/leave/split maneuver history lives here).
    [[nodiscard]] platoon::Platoon& platoon();
    [[nodiscard]] const platoon::ManeuverPolicy& maneuver_policy() const;
    /// Form the managed platoon from the builder-declared candidates. Call
    /// before run() or from a script (`at(...)`); once formed, the maneuver
    /// engine evaluates the policy every check_period at a script barrier:
    /// a member whose follow skill degraded below leave_below leaves, a
    /// mid-platoon member below split_below splits the platoon at its
    /// position, and a non-member candidate below join_below joins.
    const platoon::PlatoonAgreement& form_managed_platoon();
    /// Members detached by split maneuvers so far, in maneuver order.
    [[nodiscard]] const std::vector<platoon::MemberCapability>&
    detached_members() const noexcept {
        return detached_;
    }

    /// Apply weather to every vehicle with closed-loop driving.
    void set_weather(const vehicle::WeatherCondition& weather);

    // --- run / report -------------------------------------------------------
    /// Run until absolute simulation time `until` (from time zero).
    ///
    /// `num_domains` is a cross-check knob, not a re-partitioner: 0 (the
    /// default) runs whatever partition was declared at build time, and any
    /// non-zero value is REQUIREd to equal it — the vehicle→domain binding
    /// is fixed when the vehicles are composed, so call sites that state a
    /// count fail loudly when the build disagrees.
    std::size_t run(sim::Duration until, std::size_t num_domains = 0);
    std::size_t run_for(sim::Duration span) { return kernel_.run_for(span); }
    /// Thread-safe stop request (sim::ShardedKernel::stop()): run() returns
    /// at the next barrier, leaving events queued. From inside an event, the
    /// event's own domain stops right after it.
    void stop() noexcept { kernel_.stop(); }

    /// Aggregate counters at the current point of the run. Valid after a
    /// completed run(), after stop(), and after a run() that threw (a
    /// scripted fault injection raising a contract violation): the report
    /// then covers the partial run up to the failure, with `at` at the
    /// furthest domain clock.
    [[nodiscard]] ScenarioReport report() const;

private:
    friend class ScenarioBuilder;
    Scenario(std::uint64_t seed, std::size_t num_domains);

    /// Arm the maneuver engine: one policy evaluation at absolute time `at`
    /// as a script barrier (every domain quiescent, like
    /// ScenarioBuilder::at()), rescheduling itself every check_period.
    void schedule_maneuver_check(sim::Time at);
    /// One policy evaluation (runs quiescent; may touch any vehicle).
    void run_maneuver_check();

    sim::ShardedKernel kernel_;
    RandomEngine rng_;
    platoon::TrustManager trust_;
    std::vector<platoon::MemberCapability> candidates_;
    std::unique_ptr<platoon::Platoon> platoon_;
    platoon::ManeuverPolicy maneuver_policy_;
    /// True while a future maneuver check is scheduled. Cleared when the
    /// engine parks itself on a dissolved platoon; form_managed_platoon()
    /// re-arms.
    bool check_armed_ = false;
    std::vector<platoon::MemberCapability> detached_;
    std::unique_ptr<v2v::Medium> v2v_;
    /// Declared after v2v_: each MeshStack detaches from the medium in its
    /// destructor, so reverse member destruction must tear the stacks down
    /// while the medium is still alive.
    std::map<std::string, std::unique_ptr<mesh::MeshStack>> meshes_;
    std::vector<std::string> order_;
    std::map<std::string, std::unique_ptr<Vehicle>> vehicles_;
    std::map<std::string, std::unique_ptr<can::BusGateway>> bridges_;
};

} // namespace sa::scenario
