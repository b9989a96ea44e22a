#pragma once
// ScenarioBuilder: N vehicles on one sharded kernel plus the cooperation
// substrate (trust records, V2V channel, platoon candidates) and scripted
// events, producing a Scenario with a single run()/report() surface.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "lint/diagnostics.hpp"
#include "scenario/vehicle_builder.hpp"

namespace sa::scenario {

/// A directional cross-vehicle forwarding rule of a scenario-level bridge.
struct BridgeRoute {
    std::string from_vehicle;
    std::string from_bus;
    std::string to_vehicle;
    std::string to_bus;
    std::uint32_t id = 0;
    std::uint32_t mask = 0; ///< 0 forwards every frame
};

/// A named scenario-level CAN gateway joining buses of different vehicles
/// (a backbone link). Under sharding its routes cross domains and the
/// forward latency becomes the ingress domains' lookahead.
struct BridgeSpec {
    std::string name;
    std::vector<BridgeRoute> routes;
    sim::Duration forward_latency = sim::Duration::us(100);
};

class ScenarioBuilder {
public:
    /// `seed` seeds both the kernel (domain 0's stream) and the
    /// scenario-level RNG.
    explicit ScenarioBuilder(std::uint64_t seed = 0x5AA5F00DULL);

    /// Declare (or retrieve, by name) a vehicle. Builders are stable: keep
    /// the reference and chain configuration across statements.
    VehicleBuilder& vehicle(const std::string& name);

    /// Partition the scenario into `n` ECU domains (sim::ShardedKernel).
    /// Vehicles are assigned round-robin in declaration order unless pinned
    /// via VehicleBuilder::domain(). 1 (the default) is one domain on the
    /// thread that calls run(); n > 1 runs on min(n, budget) threads, the
    /// caller and workers (sim::set_thread_budget()).
    ScenarioBuilder& domains(std::size_t n);

    /// Declare a scenario-level bridge joining buses of different vehicles.
    ScenarioBuilder& bridge(BridgeSpec spec);

    // --- cooperation substrate ---------------------------------------------
    /// Create the shared V2V radio medium (v2v::Medium) with the full
    /// physics surface: base loss, latency, hard radio range and fading
    /// model. Vehicles join it via VehicleBuilder::v2v()/mesh().
    ScenarioBuilder& v2v(v2v::MediumConfig config);
    /// Seed the shared TrustManager with interaction history for a peer.
    ScenarioBuilder& trust(const std::string& peer, int positive, int negative = 0);
    ScenarioBuilder& platoon_candidate(platoon::MemberCapability candidate);
    /// Manage a platoon over the declared candidates with automatic
    /// join/leave/split maneuvers driven by the members' skill-graph levels:
    /// the maneuver engine evaluates `policy` every check_period at a
    /// script barrier (deterministic across domain counts). Form the platoon
    /// with Scenario::form_managed_platoon() (directly or from a script).
    ScenarioBuilder& platoon_maneuvers(platoon::ManeuverPolicy policy);

    // --- scripted events ----------------------------------------------------
    /// Run `action` at absolute simulation time `when`.
    ScenarioBuilder& at(sim::Duration when, std::function<void(Scenario&)> action);

    /// Declare how long the scenario is intended to run. Purely a lint
    /// surface: rule LRN002 checks learned-monitor warm-ups against it.
    ScenarioBuilder& duration_hint(sim::Duration duration);

    // --- static analysis ----------------------------------------------------
    /// Lint the declared topology without building anything: scenario rules
    /// (SCN*) over every vehicle and bridge, model rules (MDL*) over each
    /// vehicle's contracts and platform, skills rules (SKL*) over each
    /// vehicle's spec and degradation-policy rules against `registry`.
    /// Contract text that fails to parse becomes a TXT001 finding instead of
    /// an exception.
    [[nodiscard]] lint::LintReport
    lint(const skills::CapabilityRegistry& registry =
             skills::CapabilityRegistry::builtin()) const;

    /// Build every declared vehicle (in declaration order), seed trust,
    /// create the V2V channel, then schedule the scripts.
    [[nodiscard]] std::unique_ptr<Scenario> build();

private:
    /// The domain each declared vehicle runs on, in declaration order: its
    /// pin, else the next slot of a round-robin over the unpinned vehicles.
    /// build() places the vehicles by it; lint() hands it to SCN003/SCN004.
    [[nodiscard]] std::vector<std::size_t> vehicle_domains() const;

    struct TrustSeed {
        std::string peer;
        int positive;
        int negative;
    };
    struct Script {
        sim::Duration when;
        std::function<void(Scenario&)> action;
    };

    std::uint64_t seed_;
    std::size_t num_domains_ = 1;
    std::map<std::string, VehicleBuilder> builders_; ///< by name; nodes never move
    std::vector<std::reference_wrapper<VehicleBuilder>> declared_; ///< declaration order
    std::vector<BridgeSpec> bridges_;
    bool v2v_enabled_ = false;
    v2v::MediumConfig v2v_config_{};
    std::vector<TrustSeed> trust_seeds_;
    std::vector<platoon::MemberCapability> candidates_;
    std::optional<platoon::ManeuverPolicy> maneuver_policy_;
    std::vector<Script> scripts_;
    sim::Duration duration_hint_ = sim::Duration::zero();
};

} // namespace sa::scenario
