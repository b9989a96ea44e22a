#include "scenario/scenario_builder.hpp"

#include <algorithm>

#include "lint/model_rules.hpp"
#include "lint/scenario_rules.hpp"
#include "lint/skills_rules.hpp"
#include "model/contract_parser.hpp"
#include "util/assert.hpp"
#include "util/string_util.hpp"

namespace sa::scenario {

ScenarioBuilder::ScenarioBuilder(std::uint64_t seed) : seed_(seed) {}

VehicleBuilder& ScenarioBuilder::vehicle(const std::string& name) {
    for (auto& builder : builders_) {
        if (builder.name() == name) {
            return builder;
        }
    }
    order_.push_back(name);
    builders_.emplace_back(name);
    return builders_.back();
}

ScenarioBuilder& ScenarioBuilder::domains(std::size_t n) {
    SA_REQUIRE(n >= 1, "a scenario needs at least one domain");
    num_domains_ = n;
    return *this;
}

ScenarioBuilder& ScenarioBuilder::bridge(BridgeSpec spec) {
    SA_REQUIRE(!spec.name.empty(), "bridge needs a name");
    SA_REQUIRE(!spec.routes.empty(), "bridge needs at least one route");
    bridges_.push_back(std::move(spec));
    return *this;
}

ScenarioBuilder& ScenarioBuilder::v2v(v2v::MediumConfig config) {
    SA_REQUIRE(config.loss_probability >= 0.0 && config.loss_probability <= 1.0,
               "loss probability must be in [0, 1]");
    v2v_enabled_ = true;
    v2v_config_ = config;
    return *this;
}

ScenarioBuilder& ScenarioBuilder::v2v(double loss_probability, sim::Duration latency) {
    v2v::MediumConfig config;
    config.loss_probability = loss_probability;
    config.latency = latency;
    return v2v(config);
}

ScenarioBuilder& ScenarioBuilder::trust(const std::string& peer, int positive,
                                        int negative) {
    SA_REQUIRE(positive >= 0 && negative >= 0, "trust counts must be non-negative");
    trust_seeds_.push_back(TrustSeed{peer, positive, negative});
    return *this;
}

ScenarioBuilder& ScenarioBuilder::platoon_config(platoon::PlatoonConfig config) {
    platoon_config_ = config;
    return *this;
}

ScenarioBuilder& ScenarioBuilder::platoon_candidate(platoon::MemberCapability candidate) {
    candidates_.push_back(std::move(candidate));
    return *this;
}

ScenarioBuilder& ScenarioBuilder::platoon_maneuvers(platoon::ManeuverPolicy policy) {
    SA_REQUIRE(!policy.follow_skill.empty(), "maneuver policy needs a follow skill");
    SA_REQUIRE(policy.check_period.count_ns() > 0,
               "maneuver check period must be positive");
    SA_REQUIRE(policy.leave_below >= policy.split_below,
               "leave_below must be >= split_below (a split is the more "
               "severe maneuver)");
    maneuver_policy_ = policy;
    return *this;
}

ScenarioBuilder& ScenarioBuilder::at(sim::Duration when,
                                     std::function<void(Scenario&)> action) {
    SA_REQUIRE(action != nullptr, "script needs an action");
    SA_REQUIRE(when.count_ns() >= 0, "script time must be non-negative");
    scripts_.push_back(Script{when, std::move(action)});
    return *this;
}

ScenarioBuilder& ScenarioBuilder::duration_hint(sim::Duration duration) {
    SA_REQUIRE(duration.count_ns() >= 0, "duration hint must be non-negative");
    duration_hint_ = duration;
    return *this;
}

lint::LintReport
ScenarioBuilder::lint(const skills::CapabilityRegistry& registry) const {
    lint::LintReport report;

    // Scenario-layer topology rules (SCN*).
    lint::ScenarioShape shape;
    shape.num_domains = num_domains_;
    shape.v2v_enabled = v2v_enabled_;
    shape.v2v_latency_ns = v2v_config_.latency.count_ns();
    shape.v2v_range_m = v2v_config_.range_m;
    shape.duration_hint_ns = duration_hint_.count_ns();
    for (const auto& name : order_) {
        auto it = std::find_if(builders_.begin(), builders_.end(),
                               [&](const VehicleBuilder& b) {
                                   return b.name() == name;
                               });
        SA_ASSERT(it != builders_.end(), "builder list out of sync");
        lint::VehicleShape vehicle;
        it->describe(vehicle);
        shape.vehicles.push_back(std::move(vehicle));
    }
    for (const auto& spec : bridges_) {
        lint::GatewayShape bridge;
        bridge.name = spec.name;
        bridge.forward_latency_ns = spec.forward_latency.count_ns();
        for (const auto& route : spec.routes) {
            bridge.routes.push_back(lint::RouteShape{
                route.from_vehicle + ":" + route.from_bus,
                route.to_vehicle + ":" + route.to_bus, route.id, route.mask});
        }
        shape.bridges.push_back(std::move(bridge));
    }
    report.merge(lint::lint_scenario(shape));

    // Model- and skills-layer rules per vehicle.
    for (const auto& builder : builders_) {
        try {
            const model::ChangeRequest change = builder.change_request();
            if (!change.contracts.empty()) {
                const model::FunctionModel functions{change.contracts};
                report.merge(
                    lint::lint_system(functions, builder.platform_model()));
            }
        } catch (const util::ParseError& error) {
            report.add("TXT001",
                       "vehicle " + builder.name() + " / contracts",
                       format("line %d: %s", error.line(), error.what()));
        }
        if (builder.skill_spec().has_value()) {
            report.merge(lint::lint_spec(*builder.skill_spec(), &registry));
        }
        if (builder.declared_degradation_policy().has_value()) {
            const auto& policy = *builder.declared_degradation_policy();
            for (const auto& rule : policy.extra_rules()) {
                report.merge(lint::lint_binding(rule, policy.registry()));
            }
        }
    }
    return report;
}

ScenarioBuilder& ScenarioBuilder::strict(bool enabled) {
    strict_ = enabled;
    return *this;
}

std::unique_ptr<Scenario> ScenarioBuilder::build() {
    if (strict_) {
        const lint::LintReport report = lint();
        SA_REQUIRE(report.error_count() + report.warning_count() == 0,
                   "strict scenario lint failed:\n" + report.str());
    }
    auto scenario = std::unique_ptr<Scenario>(new Scenario(seed_, num_domains_));
    std::size_t round_robin = 0;
    for (const auto& name : order_) {
        auto it = std::find_if(builders_.begin(), builders_.end(),
                               [&](const VehicleBuilder& b) { return b.name() == name; });
        SA_ASSERT(it != builders_.end(), "builder list out of sync");
        // Pinned vehicles must not consume round-robin slots: only unpinned
        // ones advance the counter, so "round-robin in declaration order
        // unless pinned" means exactly that.
        std::size_t domain;
        if (it->assigned_domain().has_value()) {
            domain = *it->assigned_domain();
        } else {
            domain = round_robin++ % num_domains_;
        }
        SA_REQUIRE(domain < num_domains_,
                   "vehicle '" + name + "' pinned to domain out of range");
        scenario->vehicles_.emplace(name,
                                    it->build(scenario->domain_simulator(domain)));
        scenario->order_.push_back(name);
    }
    for (const auto& spec : bridges_) {
        SA_REQUIRE(!scenario->bridges_.contains(spec.name),
                   "duplicate bridge: " + spec.name);
        auto gateway =
            std::make_unique<can::BusGateway>(spec.name, spec.forward_latency);
        for (const auto& route : spec.routes) {
            can::CanBus& from =
                scenario->vehicle(route.from_vehicle).rte().can_bus(route.from_bus);
            can::CanBus& to =
                scenario->vehicle(route.to_vehicle).rte().can_bus(route.to_bus);
            gateway->add_route(from, to, route.id, route.mask);
        }
        scenario->bridges_.emplace(spec.name, std::move(gateway));
    }
    for (const auto& seed : trust_seeds_) {
        for (int i = 0; i < seed.positive; ++i) {
            scenario->trust_.record(seed.peer, true);
        }
        for (int i = 0; i < seed.negative; ++i) {
            scenario->trust_.record(seed.peer, false);
        }
    }
    if (v2v_enabled_) {
        scenario->v2v_ = std::make_unique<v2v::Medium>(scenario->simulator(),
                                                       v2v_config_);
    }
    for (const auto& name : order_) {
        auto it = std::find_if(builders_.begin(), builders_.end(),
                               [&](const VehicleBuilder& b) { return b.name() == name; });
        SA_ASSERT(it != builders_.end(), "builder list out of sync");
        const auto& endpoint = it->v2v_endpoint();
        if (!endpoint.has_value()) {
            continue;
        }
        SA_REQUIRE(v2v_enabled_, "vehicle '" + name +
                                     "' declared a V2V endpoint but the "
                                     "scenario has no v2v() medium");
        sim::Simulator& home = scenario->vehicle(name).simulator();
        if (endpoint->is_mesh) {
            scenario->meshes_.emplace(
                name, std::make_unique<mesh::MeshStack>(
                          name, *scenario->v2v_, home, endpoint->config,
                          endpoint->position_m));
        } else {
            scenario->v2v_->attach(
                name, home, [](const v2v::Frame&, double) {},
                endpoint->position_m);
        }
    }
    scenario->platoon_config_ = platoon_config_;
    scenario->candidates_ = candidates_;
    if (maneuver_policy_.has_value()) {
        scenario->maneuver_policy_ = *maneuver_policy_;
        scenario->platoon_ = std::make_unique<platoon::Platoon>(
            "platoon", scenario->trust_, platoon_config_);
        scenario->schedule_maneuver_check(
            sim::Time(maneuver_policy_->check_period.count_ns()));
        scenario->check_armed_ = true;
    }
    Scenario* raw = scenario.get();
    for (const auto& script : scripts_) {
        if (scenario->kernel_) {
            // Scripts are global barriers under sharding: they run at
            // exactly `when` with every domain quiescent, so they may touch
            // any vehicle without racing the workers.
            scenario->kernel_->schedule_script(
                sim::Time(script.when.count_ns()),
                [raw, action = script.action] { action(*raw); });
        } else {
            (void)scenario->simulator_.schedule(
                script.when, [raw, action = script.action] { action(*raw); });
        }
    }
    return scenario;
}

} // namespace sa::scenario
