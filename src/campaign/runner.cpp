#include "campaign/runner.hpp"

#include <cstdlib>
#include <deque>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <utility>

#include "learn/anomaly_model_monitor.hpp"
#include "scenario/presets.hpp"
#include "scenario/scenario.hpp"
#include "skills/capability_registry.hpp"
#include "skills/skill_graph_spec.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"
#include "util/string_util.hpp"

namespace sa::campaign {
namespace {

// Convoy-ordered vehicle names; CellConfig::vehicles ∈ [2, 8] picks a prefix.
const char* const kVehicleNames[] = {"alpha", "beta",    "gamma", "delta",
                                     "echo",  "foxtrot", "golf",  "hotel"};

/// Weather = capability-quality downgrades applied to every vehicle: the
/// preset vehicles have no closed driving loop, so weather acts on the
/// source levels the maneuver engine keys on (radar, V2V link).
void apply_weather(scenario::Scenario& scenario,
                   const std::vector<std::string>& names, Weather weather) {
    double radar = 1.0;
    double v2v = 1.0;
    switch (weather) {
    case Weather::Clear:
        return;
    case Weather::Fog:
        radar = 0.35;
        break;
    case Weather::Rain:
        radar = 0.6;
        v2v = 0.8;
        break;
    case Weather::Winter:
        radar = 0.5;
        v2v = 0.6;
        break;
    }
    for (const std::string& name : names) {
        auto& abilities = scenario.vehicle(name).abilities();
        abilities.set_source_level(skills::acc::kRadar, radar);
        abilities.set_source_level(skills::caps::kV2vLink, v2v);
        abilities.propagate();
    }
}

/// Fault injection on the cell's fault target (the second vehicle).
void apply_fault(scenario::Scenario& scenario,
                 const std::vector<std::string>& names, Fault fault) {
    const std::string& target = names[1];
    switch (fault) {
    case Fault::None:
        return;
    case Fault::FogBlind: {
        auto& abilities = scenario.vehicle(target).abilities();
        abilities.set_source_level(skills::acc::kRadar, 0.0);
        abilities.set_source_level(skills::caps::kV2vLink, 0.0);
        abilities.propagate();
        return;
    }
    case Fault::V2vBlackout:
        for (const std::string& name : names) {
            auto& abilities = scenario.vehicle(name).abilities();
            abilities.set_source_level(skills::caps::kV2vLink, 0.0);
            abilities.propagate();
        }
        return;
    case Fault::Storm: {
        auto& vehicle = scenario.vehicle(target);
        vehicle.rte().access().grant("perception", "brake_cmd");
        vehicle.faults().compromise_with_message_storm("perception", "brake_cmd",
                                                       sim::Duration::ms(2));
        return;
    }
    case Fault::Overrun:
        scenario.vehicle(target).faults().inject_wcet_violation(
            "perception", 0, sim::Duration::ms(15));
        return;
    case Fault::SensorDrift:
        // Scripted as a stepwise ramp in declare_cell_scenario (the drift
        // needs several scheduled points, not a single injection instant).
        return;
    case Fault::Misuse:
        // Deterministic SA_REQUIRE violation: probes that the harness
        // captures contract violations as verdicts, not process deaths.
        (void)scenario.vehicle(target).bus_gateway("nope");
        return;
    case Fault::Crash:
        // Harness probe for worker-process isolation. Never reached
        // in-process: the driver refuses cell_may_crash_process() cells
        // outside worker mode.
        std::abort();
    }
}

skills::SkillGraphSpec load_spec_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        throw util::ParseError(0, "cannot read spec file '" + path + "'");
    }
    std::ostringstream text;
    text << in.rdbuf();
    try {
        return skills::SkillGraphSpec::parse(text.str());
    } catch (const util::ParseError& error) {
        // Line 0: the error is about the cell; the spec file's line stays
        // in the message.
        throw util::ParseError(0, format("spec file '%s': line %d: %s", path.c_str(),
                                         error.line(), error.what()));
    }
}

/// The gateway latency of one vehicle, measured while its cell runs: the
/// k-th object frame its sense bus completes pairs with the k-th its act bus
/// completes. The store-and-forward gateway keeps one frame id in order, so
/// each pair is one frame crossing the gateway, and the count is exact at
/// any cell length.
class GatewayLatencyProbe {
public:
    GatewayLatencyProbe() = default;
    GatewayLatencyProbe(const GatewayLatencyProbe&) = delete;
    GatewayLatencyProbe& operator=(const GatewayLatencyProbe&) = delete;

    /// Subscribe to the vehicle's can_sense and can_act buses. The buses
    /// hold the probe's address, so it must outlive the vehicle's run.
    void attach(scenario::Vehicle& vehicle) {
        vehicle.rte().can_bus("can_sense").frame_completed().subscribe(
            [this](const can::CanFrame& frame, sim::Time at) {
                on_frame(false, frame, at);
            });
        vehicle.rte().can_bus("can_act").frame_completed().subscribe(
            [this](const can::CanFrame& frame, sim::Time at) {
                on_frame(true, frame, at);
            });
    }

    /// Act-bus time minus sense-bus time of every pair, in pairing order.
    [[nodiscard]] const std::vector<double>& samples() const noexcept {
        return samples_;
    }

private:
    void on_frame(bool act, const can::CanFrame& frame, sim::Time at) {
        if (frame.extended || frame.id != scenario::presets::kDualBusObjectFrameId) {
            return;
        }
        if (!waiting_.empty() && act != act_ahead_) {
            const sim::Time earlier = waiting_.front();
            waiting_.pop_front();
            samples_.push_back(static_cast<double>(act ? at.ns() - earlier.ns()
                                                       : earlier.ns() - at.ns()));
            return;
        }
        if (waiting_.empty()) {
            act_ahead_ = act;
        }
        waiting_.push_back(at);
    }

    std::deque<sim::Time> waiting_; ///< unpaired times of the bus ahead
    bool act_ahead_ = false;
    std::vector<double> samples_;
};

void fill_verdict(CellVerdict& verdict, scenario::Scenario& scenario,
                  const std::vector<std::string>& names,
                  const std::vector<GatewayLatencyProbe>& probes) {
    const scenario::ScenarioReport report = scenario.report();
    verdict.at_ns = report.at.ns();
    for (const std::string& name : names) {
        const scenario::VehicleReport& slice = report.vehicle(name);
        auto& vehicle = scenario.vehicle(name);
        VehicleVerdict row;
        row.name = name;
        row.jobs = slice.jobs_completed;
        row.misses = slice.deadline_misses;
        row.anomalies = slice.anomalies;
        row.problems_handled = slice.problems_handled;
        row.problems_resolved = slice.problems_resolved;
        const std::string& root = vehicle.root_skill();
        if (!root.empty()) {
            row.follow_level = vehicle.abilities().level(root);
        }
        if (vehicle.has_bus_gateway("gw")) {
            row.gw_forwarded = vehicle.bus_gateway("gw").frames_forwarded();
            row.gw_dropped = vehicle.bus_gateway("gw").frames_dropped();
        }
        verdict.vehicles.push_back(std::move(row));
    }
    if (scenario.has_platoon()) {
        verdict.platoon_formed = scenario.platoon().formed();
        verdict.members = scenario.platoon().member_names();
        for (const auto& member : scenario.detached_members()) {
            verdict.detached.push_back(member.id);
        }
        for (const auto& record : scenario.platoon().history()) {
            verdict.maneuvers.push_back(record.str());
        }
    }
    SampleSet latency;
    for (const GatewayLatencyProbe& probe : probes) {
        for (const double sample : probe.samples()) {
            latency.add(sample);
        }
    }
    if (latency.count() > 0) {
        verdict.latency.count = latency.count();
        verdict.latency.p50_ns = static_cast<std::int64_t>(latency.percentile(50.0));
        verdict.latency.p90_ns = static_cast<std::int64_t>(latency.percentile(90.0));
        verdict.latency.p99_ns = static_cast<std::int64_t>(latency.percentile(99.0));
        verdict.latency.max_ns = static_cast<std::int64_t>(latency.max());
    }
}

} // namespace

std::vector<std::string> cell_vehicle_names(std::size_t vehicles) {
    SA_REQUIRE(vehicles >= 2 && vehicles <= 8,
               "campaign cells support 2..8 vehicles");
    return std::vector<std::string>(kVehicleNames, kVehicleNames + vehicles);
}

platoon::ManeuverPolicy maneuver_policy_for(PolicyKind kind) {
    platoon::ManeuverPolicy policy;
    switch (kind) {
    case PolicyKind::Steady:
        policy.leave_below = 0.5;
        policy.split_below = 0.15;
        policy.join_below = 0.0;
        policy.check_period = sim::Duration::ms(247);
        break;
    case PolicyKind::Cautious:
        policy.leave_below = 0.65;
        policy.split_below = 0.3;
        policy.join_below = 0.0;
        policy.check_period = sim::Duration::ms(103);
        break;
    case PolicyKind::Eager:
        policy.leave_below = 0.4;
        policy.split_below = 0.1;
        policy.join_below = 0.55;
        policy.check_period = sim::Duration::ms(251);
        break;
    }
    return policy;
}

bool cell_may_crash_process(const CellConfig& cell) noexcept {
    return cell.fault == Fault::Crash;
}

void declare_cell_scenario(scenario::ScenarioBuilder& builder,
                           const CellConfig& cell) {
    SA_REQUIRE(cell.scenario_template == "platoon",
               "unknown campaign scenario template");
    const std::vector<std::string> names = cell_vehicle_names(cell.vehicles);
    std::shared_ptr<const skills::SkillGraphSpec> spec;
    if (!cell.spec_file.empty()) {
        spec = std::make_shared<const skills::SkillGraphSpec>(
            load_spec_file(cell.spec_file));
    }
    builder.domains(cell.domains);
    builder.duration_hint(cell.duration);
    for (const std::string& name : names) {
        scenario::presets::declare_platoon_follow_vehicle(builder, name);
        if (spec) {
            builder.vehicle(name).skill_graph(spec);
        }
        if (cell.learned_warmup.count_ns() > 0) {
            learn::LearnedMonitorConfig learned;
            learned.warmup = cell.learned_warmup;
            learned.auto_metrics = !cell.learned_no_metrics;
            learned.seed = cell.seed;
            builder.vehicle(name).learned_monitor(learned);
        }
        builder.trust(name, 14).platoon_candidate({name, 0.9, 24.0, 10.0, false});
    }
    builder.platoon_maneuvers(maneuver_policy_for(cell.policy));
    if (cell.topology == Topology::Bridged) {
        scenario::BridgeSpec bridge;
        bridge.name = "backbone";
        bridge.forward_latency = sim::Duration::us(150);
        bridge.routes.push_back({names[0], "can_sense", names[1], "can_sense",
                                 scenario::presets::kDualBusObjectFrameId,
                                 0x7F0});
        builder.bridge(std::move(bridge));
    }
    if (topology_is_mesh(cell.topology)) {
        // Convoy spacing 120 m with a 150 m default range: only adjacent
        // vehicles hear each other directly, so any farther coordination
        // must relay through the mesh. LossyMesh adds a base loss floor on
        // top of the linear range fading.
        v2v::MediumConfig medium;
        medium.loss_probability =
            cell.topology == Topology::LossyMesh ? 0.10 : 0.0;
        medium.latency = sim::Duration::ms(20);
        medium.range_m = cell.mesh_range_m > 0
                             ? static_cast<double>(cell.mesh_range_m)
                             : 150.0;
        medium.fading = v2v::Fading::Linear;
        medium.seed = cell.seed;
        builder.v2v(medium);
        for (std::size_t i = 0; i < names.size(); ++i) {
            mesh::MeshConfig stack;
            stack.beacon_ttl =
                cell.mesh_ttl > 0 ? static_cast<std::uint32_t>(cell.mesh_ttl)
                                  : 8;
            // Staggered off-grid phases: no two beacons share a timestamp
            // with each other or the preset's periodic tasks.
            stack.beacon_phase =
                sim::Duration::us(913 * static_cast<std::int64_t>(i) + 11);
            builder.vehicle(names[i]).mesh(stack,
                                           120.0 * static_cast<double>(i));
        }
    }
    // Off-grid script offsets (+11/13/17 us), kept because the committed
    // corpus fingerprints were recorded with them.
    const std::int64_t total = cell.duration.count_ns();
    const auto form_at = sim::Duration::ns(total / 8 + 11'000);
    const auto weather_at = sim::Duration::ns(total / 4 + 13'000);
    const auto fault_at = sim::Duration::ns(total / 2 + 17'000);
    builder.at(form_at,
               [](scenario::Scenario& s) { (void)s.form_managed_platoon(); });
    if (cell.weather != Weather::Clear) {
        builder.at(weather_at, [names, weather = cell.weather](
                                   scenario::Scenario& s) {
            apply_weather(s, names, weather);
        });
    }
    if (cell.fault == Fault::SensorDrift) {
        // Slow stepwise radar-capability decay on the fault target. Every
        // level stays above all maneuver-policy thresholds (Cautious leaves
        // below 0.65), so nothing hand-written reacts — only a learned
        // monitor watching skill levels sees the joint state walk away from
        // its baseline.
        static constexpr double kDriftLevels[] = {0.94, 0.88, 0.82, 0.76};
        for (std::size_t step = 0; step < std::size(kDriftLevels); ++step) {
            const auto step_at = sim::Duration::ns(
                total / 2 + (total / 16) * static_cast<std::int64_t>(step) +
                17'000);
            builder.at(step_at, [target = names[1], level = kDriftLevels[step]](
                                    scenario::Scenario& s) {
                auto& abilities = s.vehicle(target).abilities();
                abilities.set_source_level(skills::acc::kRadar, level);
                abilities.propagate();
            });
        }
    } else if (cell.fault != Fault::None) {
        builder.at(fault_at, [names, fault = cell.fault](scenario::Scenario& s) {
            apply_fault(s, names, fault);
        });
    }
}

CellVerdict run_cell(const CellConfig& cell) {
    CellVerdict verdict;
    scenario::ScenarioBuilder builder(cell.seed);
    declare_cell_scenario(builder, cell);
    const std::vector<std::string> names = cell_vehicle_names(cell.vehicles);
    // Declared before the scenario, so they outlive the buses they subscribe to.
    std::vector<GatewayLatencyProbe> probes(names.size());
    std::unique_ptr<scenario::Scenario> scenario;
    try {
        scenario = builder.build();
        for (std::size_t i = 0; i < names.size(); ++i) {
            probes[i].attach(scenario->vehicle(names[i]));
        }
        scenario->run(cell.duration, cell.domains);
    } catch (const ContractViolation& violation) {
        verdict.status = "violation";
        verdict.reason = violation.message();
    } catch (const std::exception& error) {
        verdict.status = "violation";
        verdict.reason = error.what();
    }
    if (scenario) {
        fill_verdict(verdict, *scenario, names, probes);
    }
    return verdict;
}

} // namespace sa::campaign
