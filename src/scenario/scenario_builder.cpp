#include "scenario/scenario_builder.hpp"

#include <algorithm>
#include <utility>

#include "lint/model_rules.hpp"
#include "lint/scenario_rules.hpp"
#include "lint/skills_rules.hpp"
#include "model/contract_parser.hpp"
#include "util/assert.hpp"
#include "util/string_util.hpp"

namespace sa::scenario {

ScenarioBuilder::ScenarioBuilder(std::uint64_t seed) : seed_(seed) {}

VehicleBuilder& ScenarioBuilder::vehicle(const std::string& name) {
    const auto [it, declared] = builders_.try_emplace(name, name);
    if (declared) {
        declared_.emplace_back(it->second);
    }
    return it->second;
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

ScenarioBuilder& ScenarioBuilder::trust(const std::string& peer, int positive,
                                        int negative) {
    SA_REQUIRE(positive >= 0 && negative >= 0, "trust counts must be non-negative");
    trust_seeds_.push_back(TrustSeed{peer, positive, negative});
    return *this;
}

ScenarioBuilder& ScenarioBuilder::platoon_candidate(platoon::MemberCapability candidate) {
    candidates_.push_back(std::move(candidate));
    return *this;
}

ScenarioBuilder& ScenarioBuilder::platoon_maneuvers(platoon::ManeuverPolicy policy) {
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
    // Each distinct contract text is parsed once: the shape takes its
    // components, the model rules below its contracts. A parse error
    // leaves both empty and becomes one TXT001 finding per vehicle.
    struct ParsedText {
        const std::string* text;
        model::FunctionModel functions;
        std::optional<std::string> error; ///< the TXT001 message
    };
    std::vector<ParsedText> texts;
    std::vector<std::size_t> text_of; ///< per vehicle, an index into texts
    const std::vector<std::size_t> domains = vehicle_domains();
    auto domain = domains.begin();
    for (const VehicleBuilder& builder : declared_) {
        const auto seen =
            std::find_if(texts.begin(), texts.end(), [&](const ParsedText& text) {
                return *text.text == builder.contract_text();
            });
        text_of.push_back(static_cast<std::size_t>(seen - texts.begin()));
        if (seen == texts.end()) {
            ParsedText& text = texts.emplace_back();
            text.text = &builder.contract_text();
            try {
                text.functions = model::FunctionModel{builder.change_request().contracts};
            } catch (const util::ParseError& error) {
                text.error = format("line %d: %s", error.line(), error.what());
            }
        }
        lint::VehicleShape vehicle;
        builder.describe(vehicle, texts[text_of.back()].functions.contracts());
        vehicle.domain = *domain++;
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

    // Model- and skills-layer rules per vehicle. Their findings name no
    // vehicle, so vehicles declared the same way share one run: lint_system
    // per distinct contract text and platform model, lint_spec per spec.
    const auto once = [](auto& runs, const auto& key,
                         const auto& run) -> const lint::LintReport& {
        for (const auto& [seen, findings] : runs) {
            if (seen == key) {
                return findings;
            }
        }
        return runs.emplace_back(key, run()).second;
    };
    std::vector<std::pair<std::pair<std::size_t, model::PlatformModel>, lint::LintReport>>
        systems;
    std::vector<std::pair<const skills::SkillGraphSpec*, lint::LintReport>> specs;
    auto next_text = text_of.begin();
    for (const VehicleBuilder& builder : declared_) {
        const std::size_t text_index = *next_text++;
        const ParsedText& text = texts[text_index];
        if (text.error.has_value()) {
            report.add("TXT001", "vehicle " + builder.name() + " / contracts",
                       *text.error);
        } else if (!text.functions.contracts().empty()) {
            const auto key = std::make_pair(text_index, builder.platform_model());
            report.merge(once(systems, key, [&] {
                return lint::lint_system(text.functions, key.second);
            }));
        }
        if (const skills::SkillGraphSpec* spec = builder.skill_spec().get()) {
            report.merge(once(specs, spec, [&] { return lint::lint_spec(*spec, &registry); }));
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

std::vector<std::size_t> ScenarioBuilder::vehicle_domains() const {
    std::vector<std::size_t> domains;
    std::size_t round_robin = 0;
    for (const VehicleBuilder& builder : declared_) {
        // Pinned vehicles take no round-robin slot, so "round-robin in
        // declaration order unless pinned" means exactly that.
        const std::optional<std::size_t> pin = builder.assigned_domain();
        domains.push_back(pin.has_value() ? *pin : round_robin++ % num_domains_);
    }
    return domains;
}

std::unique_ptr<Scenario> ScenarioBuilder::build() {
    auto scenario = std::unique_ptr<Scenario>(new Scenario(seed_, num_domains_));
    const std::vector<std::size_t> domains = vehicle_domains();
    auto next_domain = domains.begin();
    for (const VehicleBuilder& builder : declared_) {
        const std::string& name = builder.name();
        const std::size_t domain = *next_domain++;
        SA_REQUIRE(domain < num_domains_,
                   "vehicle '" + name + "' pinned to domain out of range");
        scenario->vehicles_.emplace(name,
                                    builder.build(scenario->kernel_.domain(domain)));
        scenario->order_.push_back(name);
    }
    for (const auto& spec : bridges_) {
        SA_REQUIRE(!scenario->bridges_.contains(spec.name),
                   "duplicate bridge: " + spec.name);
        auto gateway = std::make_unique<can::BusGateway>(spec.forward_latency);
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
    for (const VehicleBuilder& builder : declared_) {
        const std::string& name = builder.name();
        const auto& endpoint = builder.v2v_endpoint();
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
    scenario->candidates_ = candidates_;
    if (maneuver_policy_.has_value()) {
        scenario->maneuver_policy_ = *maneuver_policy_;
        scenario->platoon_ =
            std::make_unique<platoon::Platoon>("platoon", scenario->trust_);
        scenario->schedule_maneuver_check(
            sim::Time(maneuver_policy_->check_period.count_ns()));
        scenario->check_armed_ = true;
    }
    // Scripts are global barriers: they run at exactly `when` with every
    // domain quiescent, so they may touch any vehicle without racing a
    // window.
    Scenario* raw = scenario.get();
    for (const auto& script : scripts_) {
        scenario->kernel_.schedule_script(
            sim::Time(script.when.count_ns()),
            [raw, action = script.action] { action(*raw); });
    }
    return scenario;
}

} // namespace sa::scenario
