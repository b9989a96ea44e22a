// Tests for sa::lint: the diagnostic engine, every rule in the catalogue
// (one deliberately broken fixture per rule ID), the Mcc::integrate()
// structural gate, ScenarioBuilder::lint(), and the cleanliness
// properties the repo guarantees (builtin registry, scenario presets and
// parser round-trips produce zero errors and zero warnings).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "learn/anomaly_model_monitor.hpp"
#include "lint/diagnostics.hpp"
#include "lint/model_rules.hpp"
#include "lint/scenario_rules.hpp"
#include "lint/skills_rules.hpp"
#include "model/contract_parser.hpp"
#include "model/mcc.hpp"
#include "scenario/presets.hpp"
#include "scenario/scenario_builder.hpp"
#include "skills/capability_registry.hpp"
#include "skills/skill_graph_spec.hpp"
#include "util/assert.hpp"

namespace {

using namespace sa;
using namespace sa::lint;

// --- shared fixtures ---------------------------------------------------------------

model::PlatformModel two_ecu_platform() {
    model::PlatformModel p;
    p.ecus.push_back(
        model::EcuDescriptor{"ecu_a", 1.0, 0.75, model::Asil::D, "engine_bay", "main"});
    p.ecus.push_back(
        model::EcuDescriptor{"ecu_b", 1.0, 0.75, model::Asil::D, "cabin", "main"});
    p.buses.push_back(model::BusDescriptor{"can0", 500'000, 0.6});
    return p;
}

model::Contract simple_contract(const std::string& name, double utilization = 0.1) {
    model::Contract c;
    c.component = name;
    c.asil = model::Asil::B;
    model::TaskSpec t;
    t.name = "main";
    t.period = sim::Duration::ms(10);
    t.wcet = sim::Duration::from_seconds(0.01 * utilization);
    t.bcet = t.wcet;
    c.tasks.push_back(t);
    return c;
}

/// A registry whose catalogue contains exactly {a(skill), s(source)}.
skills::CapabilityRegistry tiny_catalogue() {
    skills::CapabilityRegistry reg;
    reg.register_capability({"a",
                             skills::SkillNodeKind::Skill,
                             "",
                             {{skills::QualityKind::Availability, 1.0}}});
    reg.register_capability({"s",
                             skills::SkillNodeKind::DataSource,
                             "",
                             {{skills::QualityKind::Availability, 1.0}}});
    return reg;
}

VehicleShape minimal_vehicle(const std::string& name = "ego") {
    VehicleShape v;
    v.name = name;
    v.ecus = {"ecu0"};
    v.buses = {"can0", "can1"};
    return v;
}

/// A scenario of `vehicle` alone, so lint_scenario() checks just that vehicle.
ScenarioShape only(VehicleShape vehicle) {
    ScenarioShape scenario;
    scenario.vehicles.push_back(std::move(vehicle));
    return scenario;
}

// --- diagnostics engine ------------------------------------------------------------

TEST(LintDiagnostics, CatalogueHasUniqueStableIds) {
    const auto& catalogue = rule_catalogue();
    EXPECT_GE(catalogue.size(), 20u);
    std::set<std::string> ids;
    for (const auto& rule : catalogue) {
        EXPECT_TRUE(ids.insert(rule.id).second) << "duplicate rule id " << rule.id;
        const auto* found = find_rule(rule.id);
        ASSERT_NE(found, nullptr);
        EXPECT_EQ(found->severity, rule.severity);
    }
    EXPECT_EQ(find_rule("XXX999"), nullptr);
}

TEST(LintDiagnostics, ReportCountsAndRenders) {
    LintReport report;
    EXPECT_TRUE(report.clean());
    EXPECT_TRUE(report.ok());
    report.add("SKL001", "spec g / skill a", "dependency cycle: a -> a");
    report.add("SKL002", "spec g / node b", "unreachable");
    EXPECT_FALSE(report.clean());
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.error_count(), 1u);
    EXPECT_EQ(report.warning_count(), 1u);
    EXPECT_TRUE(report.has("SKL001"));
    ASSERT_NE(report.first("SKL002"), nullptr);
    EXPECT_EQ(report.first("SKL002")->severity, Severity::Warning);
    const auto text = report.str();
    EXPECT_NE(text.find("error[SKL001] spec g / skill a:"), std::string::npos);
    EXPECT_NE(text.find("1 error(s), 1 warning(s), 0 info(s)"), std::string::npos);
}

TEST(LintDiagnostics, JsonSchemaIsStable) {
    LintReport report;
    report.add("MDL001", R"(component "x")", "no provider");
    EXPECT_EQ(report.json(),
              "{\"version\":1,\"errors\":1,\"warnings\":0,\"infos\":0,"
              "\"findings\":[{\"rule\":\"MDL001\",\"severity\":\"error\","
              "\"layer\":\"model\",\"subject\":\"component \\\"x\\\"\","
              "\"message\":\"no provider\"}]}");
}

TEST(LintDiagnostics, MergePreservesOrder) {
    LintReport a;
    a.add("SKL001", "s", "m");
    LintReport b;
    b.add("MDL001", "s2", "m2");
    a.merge(b);
    ASSERT_EQ(a.findings().size(), 2u);
    EXPECT_EQ(a.findings()[1].rule, "MDL001");
}

// --- skills rules: one broken fixture per rule -------------------------------------

TEST(LintSkills, SKL001DependencyCycle) {
    skills::SkillGraphSpec spec("g");
    spec.skill("a").skill("b").root("a").depends("a", {"b"}).depends("b", {"a"});
    const auto report = lint_spec(spec);
    ASSERT_TRUE(report.has("SKL001"));
    EXPECT_NE(report.first("SKL001")->message.find("a -> b -> a"), std::string::npos);
}

TEST(LintSkills, SKL002UnreachableNode) {
    skills::SkillGraphSpec spec("g");
    spec.skill("root_skill").skill("island").source("s").root("root_skill");
    spec.depends("island", {"s"});
    const auto report = lint_spec(spec);
    EXPECT_TRUE(report.has("SKL002"));
    EXPECT_TRUE(report.ok()) << "unreachability is a warning, not an error";
}

TEST(LintSkills, SKL003WeightedMeanMissingWeight) {
    skills::SkillGraphSpec spec("g");
    spec.skill("agg").source("s1").source("s2").root("agg");
    spec.depends("agg", {"s1", "s2"});
    spec.aggregate("agg", skills::Aggregation::WeightedMean);
    spec.weight("agg", "s1", 2.0); // s2 has no weight
    const auto report = lint_spec(spec);
    ASSERT_TRUE(report.has("SKL003"));
    EXPECT_NE(report.first("SKL003")->message.find("s2"), std::string::npos);
}

TEST(LintSkills, SKL004DanglingDeclarations) {
    skills::SkillGraphSpec spec("g");
    spec.skill("a").root("a");
    spec.depends("a", {"ghost"});                               // unknown child
    spec.aggregate("phantom", skills::Aggregation::Min);        // unknown skill
    spec.weight("a", "ghost2", 1.0);                            // unknown edge
    const auto report = lint_spec(spec);
    EXPECT_GE(report.error_count(), 3u);
    EXPECT_TRUE(report.has("SKL004"));
}

TEST(LintSkills, SKL005CatalogueConformance) {
    const auto catalogue = tiny_catalogue();
    skills::SkillGraphSpec spec("g");
    spec.skill("a").skill("rogue").source("s").root("a");
    spec.depends("a", {"rogue"});
    spec.depends("rogue", {"s"});
    const auto report = lint_spec(spec, &catalogue);
    ASSERT_TRUE(report.has("SKL005"));
    // Same name, wrong kind: 's' declared as a skill instead of a source.
    skills::SkillGraphSpec mismatched("g2");
    mismatched.skill("a").skill("s").root("a").depends("a", {"s"});
    EXPECT_TRUE(lint_spec(mismatched, &catalogue).has("SKL005"));
}

TEST(LintSkills, SKL006BadAlarmBinding) {
    const auto catalogue = tiny_catalogue();
    skills::AlarmBinding binding;
    binding.anomaly_kind = "deadline_missed";
    binding.capability = "nonexistent";
    EXPECT_TRUE(lint_binding(binding, catalogue).has("SKL006"));
    // Empty capability resolves at match time: nothing to check statically.
    binding.capability.clear();
    EXPECT_TRUE(lint_binding(binding, catalogue).clean());
}

TEST(LintSkills, SKL007DeadCapability) {
    auto reg = tiny_catalogue();
    skills::SkillGraphSpec spec("g");
    spec.skill("a").source("s").root("a").depends("a", {"s"});
    reg.register_spec(spec);
    reg.register_capability({"unused_cap",
                             skills::SkillNodeKind::Skill,
                             "",
                             {{skills::QualityKind::Availability, 1.0}}});
    const auto report = lint_registry(reg);
    ASSERT_TRUE(report.has("SKL007"));
    EXPECT_NE(report.first("SKL007")->subject.find("unused_cap"), std::string::npos);
    EXPECT_TRUE(report.ok()) << "dead capabilities are informational";
}

// --- model rules: one broken fixture per rule --------------------------------------

TEST(LintModel, MDL001DanglingRequires) {
    auto c = simple_contract("ctrl");
    c.requires_.push_back(model::RequiredService{"ghost_service"});
    const auto report = lint_contracts({c});
    ASSERT_TRUE(report.has("MDL001"));
    EXPECT_FALSE(report.ok());
}

TEST(LintModel, MDL002UnusedProvide) {
    auto c = simple_contract("srv");
    c.provides.push_back(model::ProvidedService{"lonely", 0.0, 0});
    const auto report = lint_contracts({c});
    EXPECT_TRUE(report.has("MDL002"));
    EXPECT_TRUE(report.ok()) << "unused provides are informational";
}

TEST(LintModel, MDL003DuplicateTaskPriority) {
    model::FunctionModel fm;
    fm.upsert(simple_contract("x"));
    fm.upsert(simple_contract("y"));
    model::Mapping mapping;
    mapping.component_to_ecu = {{"x", "ecu_a"}, {"y", "ecu_a"}};
    mapping.task_priority = {{"x.main", 5}, {"y.main", 5}};
    const auto report = lint_system(fm, two_ecu_platform(), &mapping);
    ASSERT_TRUE(report.has("MDL003"));
    EXPECT_NE(report.first("MDL003")->message.find("ecu_a"), std::string::npos);
}

TEST(LintModel, MDL004DuplicateCanIdAndMessageName) {
    auto a = simple_contract("a");
    a.messages.push_back(model::MessageSpec{"ping", 0x100, 8, sim::Duration::ms(10),
                                            sim::Duration::zero(), "can0"});
    auto b = simple_contract("b");
    b.messages.push_back(model::MessageSpec{"pong", 0x100, 8, sim::Duration::ms(10),
                                            sim::Duration::zero(), "can0"});
    b.messages.push_back(model::MessageSpec{"ping", 0x200, 8, sim::Duration::ms(10),
                                            sim::Duration::zero(), "can0"});
    const auto report = lint_contracts({a, b});
    EXPECT_TRUE(report.has("MDL004"));
    EXPECT_GE(report.error_count(), 2u) << "dup id on can0 AND dup name 'ping'";
}

TEST(LintModel, MDL005UnknownPlatformReferences) {
    auto c = simple_contract("c");
    c.pinned_ecu = "no_such_ecu";
    c.messages.push_back(model::MessageSpec{"m", 0, 8, sim::Duration::ms(10),
                                            sim::Duration::zero(), "no_such_bus"});
    model::FunctionModel fm;
    fm.upsert(c);
    const auto report = lint_system(fm, two_ecu_platform());
    EXPECT_TRUE(report.has("MDL005"));
    EXPECT_GE(report.error_count(), 2u);
}

TEST(LintModel, MDL006BadChainStage) {
    model::FunctionModel fm;
    fm.upsert(simple_contract("c"));
    model::Mapping mapping;
    mapping.component_to_ecu = {{"c", "ecu_a"}};
    mapping.task_priority = {{"c.main", 1}};
    const std::vector<analysis::ChainStage> stages = {
        {analysis::ChainStage::Kind::CpuTask, "ecu_a", "c.main"},
        {analysis::ChainStage::Kind::CpuTask, "ecu_a", "c.missing_task"},
        {analysis::ChainStage::Kind::CanMessage, "can0", "no_such_message"},
    };
    const auto report =
        lint_chain("brake_chain", stages, fm, two_ecu_platform(), mapping);
    ASSERT_TRUE(report.has("MDL006"));
    EXPECT_GE(report.error_count(), 2u);
    EXPECT_NE(report.first("MDL006")->subject.find("brake_chain"), std::string::npos);
}

TEST(LintModel, MDL007UnknownRedundancyPartner) {
    auto c = simple_contract("primary");
    c.redundant_with = "backup_that_does_not_exist";
    const auto report = lint_contracts({c});
    EXPECT_TRUE(report.has("MDL007"));
    EXPECT_TRUE(report.ok()) << "warning: partner may arrive in a later change";
}

TEST(LintModel, MDL008AmbiguousProvider) {
    auto a = simple_contract("a");
    a.provides.push_back(model::ProvidedService{"data", 0.0, 0});
    auto b = simple_contract("b");
    b.provides.push_back(model::ProvidedService{"data", 0.0, 0});
    auto c = simple_contract("c");
    c.requires_.push_back(model::RequiredService{"data"});
    const auto report = lint_contracts({a, b, c});
    EXPECT_TRUE(report.has("MDL008"));
}

// --- scenario rules: one broken fixture per rule -----------------------------------

TEST(LintScenario, SCN001RouteShadowing) {
    auto v = minimal_vehicle();
    GatewayShape gw;
    gw.name = "gw";
    gw.routes.push_back({"can0", "can1", 0x000, 0x000}); // forwards everything
    gw.routes.push_back({"can0", "can1", 0x120, 0x7FF}); // never adds a frame
    v.gateways.push_back(gw);
    const auto report = lint_scenario(only(v));
    ASSERT_TRUE(report.has("SCN001"));
    EXPECT_TRUE(report.ok()) << "shadowing is a warning";
}

TEST(LintScenario, SCN002ForwardingCycle) {
    ScenarioShape scenario;
    auto v = minimal_vehicle();
    GatewayShape gw;
    gw.name = "gw";
    gw.forward_latency_ns = 20'000;
    gw.routes.push_back({"can0", "can1", 0x120, 0x7FF});
    gw.routes.push_back({"can1", "can0", 0x120, 0x7FF});
    v.gateways.push_back(gw);
    scenario.vehicles.push_back(v);
    const auto report = lint_scenario(scenario);
    ASSERT_TRUE(report.has("SCN002"));
    EXPECT_FALSE(report.ok()) << "a circulating frame replicates forever";
}

TEST(LintScenario, SCN002DisjointMasksDoNotCycle) {
    ScenarioShape scenario;
    auto v = minimal_vehicle();
    GatewayShape gw;
    gw.name = "gw";
    gw.routes.push_back({"can0", "can1", 0x120, 0x7FF});
    gw.routes.push_back({"can1", "can0", 0x200, 0x7FF}); // different id: no loop
    v.gateways.push_back(gw);
    scenario.vehicles.push_back(v);
    EXPECT_FALSE(lint_scenario(scenario).has("SCN002"));
}

TEST(LintScenario, SCN003ZeroLatencyCrossDomainBridge) {
    ScenarioShape scenario;
    scenario.num_domains = 2;
    scenario.vehicles.push_back(minimal_vehicle("lead"));
    scenario.vehicles.push_back(minimal_vehicle("follower"));
    scenario.vehicles[1].domain = 1;
    GatewayShape bridge;
    bridge.name = "backbone";
    bridge.forward_latency_ns = 0; // cross-domain link needs lookahead > 0
    bridge.routes.push_back({"lead:can0", "follower:can0", 0x120, 0x7FF});
    scenario.bridges.push_back(bridge);
    const auto report = lint_scenario(scenario);
    ASSERT_TRUE(report.has("SCN003"));
    EXPECT_FALSE(report.ok());
    // Same bridge in a single-domain scenario is fine.
    scenario.num_domains = 1;
    scenario.vehicles[1].domain = 0;
    EXPECT_FALSE(lint_scenario(scenario).has("SCN003"));
}

TEST(LintScenario, SCN004DomainPinOutOfRange) {
    ScenarioShape scenario;
    scenario.num_domains = 2;
    auto v = minimal_vehicle();
    v.domain = 5;
    scenario.vehicles.push_back(v);
    EXPECT_TRUE(lint_scenario(scenario).has("SCN004"));
    scenario.vehicles[0].domain = 1;
    EXPECT_FALSE(lint_scenario(scenario).has("SCN004"));
}

TEST(LintScenario, SCN005UndeclaredReferences) {
    ScenarioShape scenario;
    auto v = minimal_vehicle();
    v.ecu_monitors.push_back({"thermal_guard", "ghost_ecu"});
    GatewayShape gw;
    gw.name = "gw";
    gw.routes.push_back({"can0", "ghost_bus", 0x120, 0x7FF});
    v.gateways.push_back(gw);
    scenario.vehicles.push_back(v);
    GatewayShape bridge;
    bridge.name = "backbone";
    bridge.routes.push_back({"ego:can0", "ghost_vehicle:can0", 0, 0});
    scenario.bridges.push_back(bridge);
    const auto report = lint_scenario(scenario);
    EXPECT_TRUE(report.has("SCN005"));
    EXPECT_GE(report.error_count(), 3u)
        << "monitor ECU, gateway bus and bridge vehicle are all unknown";
}

TEST(LintScenario, SCN006HeartbeatWatchesUnpublishedSource) {
    ScenarioShape scenario;
    auto v = minimal_vehicle();
    v.raw_tasks = {"app"};
    v.heartbeat_watches = {"app", "silent_peer"};
    scenario.vehicles.push_back(v);
    const auto report = lint_scenario(scenario);
    ASSERT_TRUE(report.has("SCN006"));
    EXPECT_NE(report.first("SCN006")->subject.find("silent_peer"), std::string::npos);
    // A second vehicle publishing under that name resolves the watch.
    auto peer = minimal_vehicle("silent_peer");
    scenario.vehicles.push_back(peer);
    EXPECT_FALSE(lint_scenario(scenario).has("SCN006"));
}

TEST(LintScenario, SCN007SensorBoundToUnknownSkillNode) {
    auto v = minimal_vehicle();
    v.sensors = {"radar0"};
    v.has_skill_graph = true;
    v.bindable_nodes = {"radar"};
    v.sensor_skill_bindings = {{"radar0", "no_such_node"}};
    const auto report = lint_scenario(only(v));
    ASSERT_TRUE(report.has("SCN007"));
    v.sensor_skill_bindings = {{"radar0", "radar"}};
    EXPECT_FALSE(lint_scenario(only(v)).has("SCN007"));
}

TEST(LintScenario, SCN007SensorBoundToSkillNode) {
    // A skill's level is propagated, not fed: the builder lists only the
    // graph's sources and sinks as bindable, so a skill binding is flagged.
    auto declare = [](scenario::ScenarioBuilder& builder, const char* node) {
        builder.vehicle("ego")
            .driving(vehicle::ScenarioConfig{})
            .sensor({vehicle::SensorType::Radar, "radar", 150.0, 0.3, 0.002},
                    monitor::SensorQualityConfig{}, node)
            .skill_graph("acc");
    };
    scenario::ScenarioBuilder skill_bound;
    declare(skill_bound, skills::acc::kPerceiveTrack);
    const auto report = skill_bound.lint();
    ASSERT_TRUE(report.has("SCN007")) << report.str();
    EXPECT_NE(report.first("SCN007")->message.find(skills::acc::kPerceiveTrack),
              std::string::npos);
    scenario::ScenarioBuilder source_bound;
    declare(source_bound, skills::acc::kRadar);
    EXPECT_FALSE(source_bound.lint().has("SCN007"));
}

TEST(LintScenario, MSH001EndpointOutOfRadioRange) {
    ScenarioShape scenario;
    scenario.v2v_enabled = true;
    scenario.v2v_range_m = 50.0;
    auto a = minimal_vehicle("a");
    a.v2v_endpoint = MeshEndpointShape{true, 0.0, 4};
    auto b = minimal_vehicle("b");
    b.v2v_endpoint = MeshEndpointShape{true, 120.0, 4};
    scenario.vehicles.push_back(a);
    scenario.vehicles.push_back(b);
    const auto report = lint_scenario(scenario);
    ASSERT_TRUE(report.has("MSH001"));
    EXPECT_FALSE(report.ok()) << "islands can never exchange frames";
    // Widening the range (or an unlimited medium) resolves it.
    scenario.v2v_range_m = 150.0;
    EXPECT_FALSE(lint_scenario(scenario).has("MSH001"));
    scenario.v2v_range_m = 0.0;
    EXPECT_FALSE(lint_scenario(scenario).has("MSH001"));
}

TEST(LintScenario, MSH001PlainEndpointsDoNotRelay) {
    // a -- plain(60) -- b: each hop is in range, but the interior endpoint
    // never forwards, so the far pair is still unreachable.
    ScenarioShape scenario;
    scenario.v2v_enabled = true;
    scenario.v2v_range_m = 100.0;
    auto a = minimal_vehicle("a");
    a.v2v_endpoint = MeshEndpointShape{true, 0.0, 4};
    auto mid = minimal_vehicle("mid");
    mid.v2v_endpoint = MeshEndpointShape{false, 60.0, 0};
    auto b = minimal_vehicle("b");
    b.v2v_endpoint = MeshEndpointShape{true, 120.0, 4};
    scenario.vehicles.push_back(a);
    scenario.vehicles.push_back(mid);
    scenario.vehicles.push_back(b);
    ASSERT_TRUE(lint_scenario(scenario).has("MSH001"));
    // The same interior endpoint as a mesh stack relays — reachable.
    scenario.vehicles[1].v2v_endpoint = MeshEndpointShape{true, 60.0, 4};
    EXPECT_FALSE(lint_scenario(scenario).has("MSH001"));
}

TEST(LintScenario, MSH002BeaconTtlBelowHopEccentricity) {
    // Four-hop chain: the end nodes sit 3 hops from each other, so a TTL of
    // 1 starves their announcements before the far side learns a route.
    ScenarioShape scenario;
    scenario.v2v_enabled = true;
    scenario.v2v_range_m = 150.0;
    for (int i = 0; i < 4; ++i) {
        auto v = minimal_vehicle("v" + std::to_string(i));
        v.v2v_endpoint = MeshEndpointShape{true, 120.0 * i, 1};
        scenario.vehicles.push_back(v);
    }
    const auto report = lint_scenario(scenario);
    ASSERT_TRUE(report.has("MSH002"));
    EXPECT_FALSE(report.ok());
    EXPECT_NE(report.first("MSH002")->message.find("eccentricity"),
              std::string::npos);
    // A TTL covering the eccentricity clears every endpoint.
    for (auto& v : scenario.vehicles) {
        v.v2v_endpoint->beacon_ttl = 3;
    }
    EXPECT_FALSE(lint_scenario(scenario).has("MSH002"));
}

TEST(LintScenario, LRN001LearnedMonitorWithNoMetrics) {
    auto v = minimal_vehicle();
    v.learned_monitors.push_back({0, sim::Duration::ms(500).count_ns()});
    const auto report = lint_scenario(only(v));
    ASSERT_TRUE(report.has("LRN001"));
    EXPECT_FALSE(report.ok());
    v.learned_monitors[0].metric_count = 3;
    EXPECT_FALSE(lint_scenario(only(v)).has("LRN001"));
}

TEST(LintScenario, LRN002WarmupOutlivesDeclaredRun) {
    ScenarioShape scenario;
    auto v = minimal_vehicle();
    v.learned_monitors.push_back({4, sim::Duration::sec(2).count_ns()});
    scenario.vehicles.push_back(v);

    scenario.duration_hint_ns = sim::Duration::sec(1).count_ns();
    ASSERT_TRUE(lint_scenario(scenario).has("LRN002"));

    scenario.duration_hint_ns = sim::Duration::sec(10).count_ns();
    EXPECT_FALSE(lint_scenario(scenario).has("LRN002"));

    // Unknown duration: the rule gives the benefit of the doubt.
    scenario.duration_hint_ns = 0;
    EXPECT_FALSE(lint_scenario(scenario).has("LRN002"));
}

TEST(LintBuilder, LearnedRulesSurfaceThroughBuilderLint) {
    // A vehicle with no driving loop, sensors or skill graph has nothing for
    // metric auto-resolution to find (LRN001), and the warm-up exceeds the
    // declared duration (LRN002).
    scenario::ScenarioBuilder builder;
    builder.duration_hint(sim::Duration::ms(200));
    learn::LearnedMonitorConfig learned;
    learned.warmup = sim::Duration::sec(1);
    builder.vehicle("ego")
        .ecu({"ecu0", 1.0, 0.75, model::Asil::D, "cabin", "main"})
        .learned_monitor(learned);
    const auto report = builder.lint();
    EXPECT_TRUE(report.has("LRN001")) << report.str();
    EXPECT_TRUE(report.has("LRN002")) << report.str();
}

TEST(LintBuilder, DomainAssignmentPredictsBuild) {
    // Two domains: "pinned" sits on domain 1, and the unpinned "b" and "c"
    // take round-robin slots 0 and 1 (a pin takes no slot). A zero-latency
    // bridge is legal only inside one domain, so whether SCN003 fires
    // depends on the assignment, and lint's verdict must predict build().
    for (const std::string peer : {"b", "c"}) {
        scenario::ScenarioBuilder builder;
        builder.domains(2);
        for (const char* name : {"pinned", "b", "c"}) {
            builder.vehicle(name)
                .ecu({"ecu0", 1.0, 0.75, model::Asil::D, "cabin", "main"})
                .can_bus({"can0"});
        }
        builder.vehicle("pinned").domain(1);
        builder.bridge({"backbone",
                        {{"pinned", "can0", peer, "can0", 0x120, 0x7FF}},
                        sim::Duration::zero()});
        const bool scn003 = builder.lint().has("SCN003");
        EXPECT_EQ(scn003, peer == "b") << peer;
        if (scn003) {
            EXPECT_THROW((void)builder.build(), ContractViolation) << peer;
        } else {
            EXPECT_NO_THROW((void)builder.build()) << peer;
        }
    }
}

TEST(LintBuilder, VehiclesDeclaredAlikeKeepTheirOwnFindings) {
    // lint() runs the model rules once per distinct contract text and
    // platform and the skills rules once per spec. Each vehicle must still
    // get the findings, in the order, that a builder declaring it alone
    // reports. "b" shares the text but lacks can0 (MDL005); "c" is "a"
    // again; "d" has text that does not parse (TXT001 names the vehicle).
    const char* dangling = R"(
        component ctrl {
          task act { wcet 200us; period 10ms; }
          requires service brake_actuator;
          message status { id 0x201; payload 8; period 10ms; bus can0; }
        }
    )";
    const auto cyclic = std::make_shared<const skills::SkillGraphSpec>(
        skills::SkillGraphSpec::parse(R"(
            graph broken {
              root a;
              skill a;
              skill b;
              skill orphan;
              a -> b;
              b -> a;
            }
        )"));
    struct Decl {
        const char* name;
        bool bus;
        const char* text;
    };
    const Decl decls[] = {{"a", true, dangling},
                          {"b", false, dangling},
                          {"c", true, dangling},
                          {"d", true, "component broken { bogus }"}};
    const auto declare = [&](scenario::ScenarioBuilder& builder, const Decl& decl) {
        auto& vehicle = builder.vehicle(decl.name)
                            .ecu({"ecu0", 1.0, 0.75, model::Asil::D, "cabin", "main"})
                            .contracts(decl.text)
                            .skill_graph(cyclic);
        if (decl.bus) {
            vehicle.can_bus({"can0"});
        }
    };
    const auto vehicle_findings = [](const LintReport& report) {
        std::vector<std::string> lines;
        for (const Finding& finding : report.findings()) {
            if (finding.layer != Layer::Scenario) {
                lines.push_back(finding.str());
            }
        }
        return lines;
    };
    scenario::ScenarioBuilder together;
    std::vector<std::string> alone;
    for (const Decl& decl : decls) {
        declare(together, decl);
        scenario::ScenarioBuilder single;
        declare(single, decl);
        for (std::string& line : vehicle_findings(single.lint())) {
            alone.push_back(std::move(line));
        }
    }
    const std::vector<std::string> shared = vehicle_findings(together.lint());
    EXPECT_EQ(shared, alone);
    const auto count = [&shared](const char* rule) {
        return std::count_if(shared.begin(), shared.end(), [rule](const std::string& line) {
            return line.find(rule) != std::string::npos;
        });
    };
    EXPECT_EQ(count("MDL001"), 3);
    EXPECT_EQ(count("MDL005"), 1);
    EXPECT_EQ(count("SKL001"), 4);
    EXPECT_EQ(count("TXT001"), 1);
}

// --- TXT001 + builder integration --------------------------------------------------

TEST(LintBuilder, TXT001ContractParseFailure) {
    scenario::ScenarioBuilder builder;
    builder.vehicle("ego")
        .ecu({"ecu0", 1.0, 0.75, model::Asil::D, "cabin", "main"})
        .contracts("component broken { this is not the grammar }");
    const auto report = builder.lint();
    ASSERT_TRUE(report.has("TXT001"));
    EXPECT_FALSE(report.ok());

    // The message carries the parser's line exactly once.
    scenario::ScenarioBuilder two_lines;
    two_lines.vehicle("ego")
        .ecu({"ecu0", 1.0, 0.75, model::Asil::D, "cabin", "main"})
        .contracts("component broken {\n  bogus;\n}");
    const auto findings = two_lines.lint().findings();
    const auto txt = std::find_if(findings.begin(), findings.end(),
                                  [](const Finding& f) { return f.rule == "TXT001"; });
    ASSERT_NE(txt, findings.end());
    EXPECT_TRUE(txt->message.starts_with("line 2: ")) << txt->message;
    EXPECT_EQ(txt->message.find("line ", 1), std::string::npos) << txt->message;
}

TEST(LintBuilder, CleanVehicleLintsClean) {
    scenario::ScenarioBuilder builder;
    builder.vehicle("ego")
        .ecu({"ecu0", 1.0, 0.75, model::Asil::D, "cabin", "main"})
        .contracts(R"(
            component ctrl {
              asil D;
              task control { wcet 500us; period 10ms; }
              provides service cmd;
            }
            component app {
              asil C;
              task plan { wcet 1ms; period 20ms; }
              requires service cmd;
            }
        )");
    const auto report = builder.lint();
    EXPECT_EQ(report.error_count(), 0u) << report.str();
    EXPECT_EQ(report.warning_count(), 0u) << report.str();
}

// --- the MCC structural gate -------------------------------------------------------

TEST(LintMcc, IntegrateRejectsStructurallyBrokenChange) {
    model::Mcc mcc(two_ecu_platform());
    model::ChangeRequest change;
    auto a = simple_contract("a");
    a.messages.push_back(model::MessageSpec{"status", 0x100, 8, sim::Duration::ms(10),
                                            sim::Duration::zero(), "can0"});
    auto b = simple_contract("b");
    b.messages.push_back(model::MessageSpec{"status", 0x101, 8, sim::Duration::ms(10),
                                            sim::Duration::zero(), "can0"});
    change.contracts = {a, b};
    const auto report = mcc.integrate(change);
    EXPECT_FALSE(report.accepted);
    EXPECT_NE(report.rejection_reason.find("structural lint failed"),
              std::string::npos);
    EXPECT_TRUE(report.lint.has("MDL004"));
    // The gate fires before the viewpoints: none of them ran.
    EXPECT_TRUE(report.viewpoints.empty());
    bool saw_lint_step = false;
    for (const auto& step : report.steps) {
        if (step.name == "lint:MDL004") {
            saw_lint_step = true;
            EXPECT_FALSE(step.passed);
        }
    }
    EXPECT_TRUE(saw_lint_step);
    // The committed model is untouched.
    EXPECT_TRUE(mcc.functions().empty());
}

TEST(LintMcc, WarningsDoNotBlockIntegration) {
    model::Mcc mcc(two_ecu_platform());
    model::ChangeRequest change;
    auto c = simple_contract("c");
    c.redundant_with = "missing_partner"; // MDL007: warning, not error
    change.contracts = {c};
    const auto report = mcc.integrate(change);
    EXPECT_TRUE(report.accepted) << report.rejection_reason;
    EXPECT_TRUE(report.lint.has("MDL007"));
}

// --- registry loudness (satellite) -------------------------------------------------

TEST(LintRegistry, DuplicateSpecRegistrationThrows) {
    auto reg = tiny_catalogue();
    skills::SkillGraphSpec spec("g");
    spec.skill("a").source("s").root("a").depends("a", {"s"});
    reg.register_spec(spec);
    EXPECT_THROW(reg.register_spec(spec), ContractViolation);
}

TEST(LintRegistry, DuplicateAlarmBindingThrows) {
    auto reg = tiny_catalogue();
    skills::AlarmBinding binding;
    binding.anomaly_kind = "sensor_failed";
    binding.capability = "a";
    binding.quality = skills::QualityKind::Availability;
    reg.register_capability({"a2", skills::SkillNodeKind::Skill, "",
                             {{skills::QualityKind::Availability, 1.0}}});
    binding.capability = "a2";
    reg.bind_alarm(binding);
    EXPECT_THROW(reg.bind_alarm(binding), ContractViolation);
    // A differing binding (other quality value) is not a duplicate.
    binding.degraded_value = 0.5;
    EXPECT_NO_THROW(reg.bind_alarm(binding));
}

// --- cleanliness properties --------------------------------------------------------

TEST(LintProperties, BuiltinRegistryIsLintClean) {
    const auto report = lint_registry(skills::CapabilityRegistry::builtin());
    EXPECT_EQ(report.error_count(), 0u) << report.str();
    EXPECT_EQ(report.warning_count(), 0u) << report.str();
}

TEST(LintProperties, ScenarioPresetsAreLintClean) {
    scenario::ScenarioBuilder builder;
    scenario::presets::declare_dual_bus_platoon_vehicle(builder, "lead");
    scenario::presets::declare_platoon_follow_vehicle(builder, "follower");
    const auto report = builder.lint();
    EXPECT_EQ(report.error_count(), 0u) << report.str();
    EXPECT_EQ(report.warning_count(), 0u) << report.str();
}

TEST(LintProperties, SpecTextRoundTripStaysClean) {
    const auto& builtin = skills::CapabilityRegistry::builtin();
    for (const auto& name : builtin.spec_names()) {
        const auto& spec = *builtin.spec(name);
        const auto reparsed = skills::SkillGraphSpec::parse(spec.str());
        const auto report = lint_spec(reparsed, &builtin);
        EXPECT_EQ(report.error_count(), 0u) << name << ":\n" << report.str();
        EXPECT_EQ(report.warning_count(), 0u) << name << ":\n" << report.str();
    }
}

TEST(LintProperties, ContractRoundTripStaysClean) {
    const char* text = R"(
        component perception {
          asil D;
          task fuse { wcet 300us; period 10ms; }
          provides service objects;
          message obj { id 0x100; payload 8; period 10ms; }
        }
        component planner {
          asil D;
          task plan { wcet 500us; period 20ms; }
          requires service objects;
        }
    )";
    const auto contracts = model::ContractParser{}.parse(text);
    const auto report = lint_contracts(contracts);
    EXPECT_EQ(report.error_count(), 0u) << report.str();
    EXPECT_EQ(report.warning_count(), 0u) << report.str();
}

} // namespace
