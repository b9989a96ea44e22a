// Tests for the model domain: contract language parsing, mapping,
// viewpoints, cross-layer dependency graph, automated FMEA, and the MCC's
// integration process (Fig. 1 acceptance loop).

#include <gtest/gtest.h>

#include <latch>
#include <string>
#include <thread>

#include "model/contract_parser.hpp"
#include "model/dependency_graph.hpp"
#include "model/fmea.hpp"
#include "model/mcc.hpp"
#include "model/safety_viewpoint.hpp"
#include "model/timing_viewpoint.hpp"
#include "util/assert.hpp"

namespace {

using namespace sa;
using namespace sa::model;
using sim::Duration;

// --- Contract parser -------------------------------------------------------------

TEST(ContractParser, FullFeaturedContract) {
    const std::string text = R"(
        // rear brake controller
        component brake_ctrl {
          asil D;
          security_level 2;
          task control { wcet 200us; bcet 100us; period 10ms; deadline 5ms; }
          task diag { wcet 1ms; period 100ms; }
          provides service brake_cmd { max_rate 200/s; min_client_level 1; }
          requires service brake_actuator;
          message brake_status { id 0x120; payload 8; period 20ms; deadline 10ms; }
          pin ecu brake_ecu;
          redundant_with brake_ctrl_b;
          max_e2e_latency 15ms;
          external;
          gateway;
        }
    )";
    ContractParser parser;
    const Contract c = parser.parse_one(text);
    EXPECT_EQ(c.component, "brake_ctrl");
    EXPECT_EQ(c.asil, Asil::D);
    EXPECT_EQ(c.security_level, 2);
    ASSERT_EQ(c.tasks.size(), 2u);
    EXPECT_EQ(c.tasks[0].wcet, Duration::us(200));
    EXPECT_EQ(c.tasks[0].bcet, Duration::us(100));
    EXPECT_EQ(c.tasks[0].period, Duration::ms(10));
    EXPECT_EQ(c.tasks[0].deadline, Duration::ms(5));
    EXPECT_EQ(c.tasks[1].bcet, c.tasks[1].wcet); // default bcet = wcet
    ASSERT_EQ(c.provides.size(), 1u);
    EXPECT_DOUBLE_EQ(c.provides[0].max_client_rate_hz, 200.0);
    EXPECT_EQ(c.provides[0].min_client_level, 1);
    ASSERT_EQ(c.requires_.size(), 1u);
    EXPECT_EQ(c.requires_[0].name, "brake_actuator");
    ASSERT_EQ(c.messages.size(), 1u);
    EXPECT_EQ(c.messages[0].can_id, 0x120u);
    EXPECT_EQ(*c.pinned_ecu, "brake_ecu");
    EXPECT_EQ(*c.redundant_with, "brake_ctrl_b");
    EXPECT_EQ(*c.max_e2e_latency, Duration::ms(15));
    EXPECT_TRUE(c.external_interface);
    EXPECT_TRUE(c.gateway);
}

TEST(ContractParser, MultipleComponents) {
    ContractParser parser;
    const auto contracts = parser.parse(R"(
        component a { task t { wcet 1ms; period 10ms; } }
        component b { task t { wcet 2ms; period 10ms; } }
    )");
    ASSERT_EQ(contracts.size(), 2u);
    EXPECT_EQ(contracts[0].component, "a");
    EXPECT_EQ(contracts[1].component, "b");
}

TEST(ContractParser, ErrorsCarryLineNumbers) {
    ContractParser parser;
    try {
        (void)parser.parse("component x {\n  asil Z;\n}");
        FAIL() << "expected util::ParseError";
    } catch (const util::ParseError& e) {
        EXPECT_EQ(e.line(), 2);
        EXPECT_NE(std::string(e.what()).find("unknown ASIL"), std::string::npos);
    }
}

TEST(ContractParser, RejectsTasklessComponent) {
    ContractParser parser;
    EXPECT_THROW((void)parser.parse("component idle { asil A; }"), util::ParseError);
}

TEST(ContractParser, RejectsBadDurations) {
    ContractParser parser;
    EXPECT_THROW(
        (void)parser.parse("component x { task t { wcet 10; period 10ms; } }"),
        util::ParseError);
}

TEST(ContractParser, RejectsBcetAboveWcet) {
    ContractParser parser;
    EXPECT_THROW((void)parser.parse(
                     "component x { task t { wcet 1ms; bcet 2ms; period 10ms; } }"),
                 util::ParseError);
}

TEST(ContractParser, RejectsBadSecurityLevel) {
    ContractParser parser;
    EXPECT_THROW(
        (void)parser.parse(
            "component x { security_level 7; task t { wcet 1ms; period 10ms; } }"),
        util::ParseError);
}

TEST(ContractParser, RejectsUnknownClause) {
    ContractParser parser;
    EXPECT_THROW(
        (void)parser.parse(
            "component x { quantum_entangle; task t { wcet 1ms; period 10ms; } }"),
        util::ParseError);
}

TEST(ContractParser, HexAndDecimalIds) {
    ContractParser parser;
    const auto c = parser.parse_one(R"(component x {
        task t { wcet 1ms; period 10ms; }
        message a { id 0x1A0; period 10ms; }
        message b { id 256; period 10ms; }
    })");
    EXPECT_EQ(c.messages[0].can_id, 0x1A0u);
    EXPECT_EQ(c.messages[1].can_id, 256u);
}

TEST(ContractParser, ChecksEveryNumberWithItsLine) {
    // Each clause sits on line 3. Every value is out of the model's range,
    // not a whole token of the right form, or overflows.
    ContractParser parser;
    for (const char* clause :
         {"message m { payload 4294967300; }", "security_level 4294967298;",
          "message m { id 0x100000100; }", "message m { id 12ms; }",
          "provides service s { max_rate 100ms/s; }", "task u { wcet 1.2.3ms; }",
          "task u { wcet 99999999999999999999s; }", "task u { wcet 10; }"}) {
        try {
            (void)parser.parse(std::string("component x {\n  task t { wcet 1ms; }\n  ") +
                               clause + "\n}");
            ADD_FAILURE() << "accepted: " << clause;
        } catch (const util::ParseError& e) {
            EXPECT_EQ(e.line(), 3) << clause;
        }
    }
    // The bounds themselves parse.
    const auto c = parser.parse_one(
        "component x { security_level 3; task t { wcet 1.5ms; }\n"
        "  message m { id 0x1FFFFFFF; payload 8; } }");
    EXPECT_EQ(c.security_level, 3);
    EXPECT_EQ(c.tasks[0].wcet, Duration::us(1500));
    EXPECT_EQ(c.messages[0].can_id, 0x1FFFFFFFu);
    EXPECT_EQ(c.messages[0].payload_bytes, 8);
}

TEST(ContractParser, ParseOneRejectsMultiple) {
    ContractParser parser;
    EXPECT_THROW((void)parser.parse_one(R"(
        component a { task t { wcet 1ms; period 10ms; } }
        component b { task t { wcet 1ms; period 10ms; } }
    )"),
                 util::ParseError);
}

// --- Fixtures ----------------------------------------------------------------------

PlatformModel two_ecu_platform() {
    PlatformModel p;
    p.ecus.push_back(EcuDescriptor{"ecu_a", 1.0, 0.75, Asil::D, "engine_bay", "main"});
    p.ecus.push_back(EcuDescriptor{"ecu_b", 1.0, 0.75, Asil::D, "cabin", "main"});
    p.buses.push_back(BusDescriptor{"can0", 500'000, 0.6});
    return p;
}

Contract simple_contract(const std::string& name, double utilization = 0.1,
                         Asil asil = Asil::B) {
    Contract c;
    c.component = name;
    c.asil = asil;
    TaskSpec t;
    t.name = "main";
    t.period = Duration::ms(10);
    t.wcet = Duration::from_seconds(0.01 * utilization);
    t.bcet = t.wcet;
    c.tasks.push_back(t);
    return c;
}

// --- Mapper ------------------------------------------------------------------------

TEST(Mapper, PlacesAndBalances) {
    FunctionModel fm;
    for (int i = 0; i < 4; ++i) {
        fm.upsert(simple_contract("c" + std::to_string(i), 0.3));
    }
    Mapper mapper;
    const auto result = mapper.map(fm, two_ecu_platform());
    ASSERT_TRUE(result.feasible);
    // 4 x 0.3 does not fit on one ECU (cap 0.75): must use both.
    int on_a = 0;
    for (const auto& [comp, ecu] : result.mapping.component_to_ecu) {
        if (ecu == "ecu_a") {
            ++on_a;
        }
    }
    EXPECT_EQ(on_a, 2);
}

TEST(Mapper, RespectsPin) {
    FunctionModel fm;
    auto c = simple_contract("pinned");
    c.pinned_ecu = "ecu_b";
    fm.upsert(c);
    Mapper mapper;
    const auto result = mapper.map(fm, two_ecu_platform());
    ASSERT_TRUE(result.feasible);
    EXPECT_EQ(result.mapping.ecu_of("pinned"), "ecu_b");
}

TEST(Mapper, UnknownPinFails) {
    FunctionModel fm;
    auto c = simple_contract("pinned");
    c.pinned_ecu = "ghost";
    fm.upsert(c);
    Mapper mapper;
    EXPECT_FALSE(mapper.map(fm, two_ecu_platform()).feasible);
}

TEST(Mapper, SeparatesRedundantPartners) {
    FunctionModel fm;
    auto a = simple_contract("brake_a", 0.1, Asil::D);
    auto b = simple_contract("brake_b", 0.1, Asil::D);
    a.redundant_with = "brake_b";
    b.redundant_with = "brake_a";
    fm.upsert(a);
    fm.upsert(b);
    Mapper mapper;
    const auto result = mapper.map(fm, two_ecu_platform());
    ASSERT_TRUE(result.feasible);
    EXPECT_NE(result.mapping.ecu_of("brake_a"), result.mapping.ecu_of("brake_b"));
}

TEST(Mapper, CapacityOverflowFails) {
    FunctionModel fm;
    for (int i = 0; i < 6; ++i) {
        fm.upsert(simple_contract("c" + std::to_string(i), 0.4));
    }
    Mapper mapper;
    EXPECT_FALSE(mapper.map(fm, two_ecu_platform()).feasible);
}

TEST(Mapper, KeepsExistingPlacements) {
    FunctionModel fm;
    fm.upsert(simple_contract("old"));
    Mapper mapper;
    Mapping existing;
    existing.component_to_ecu["old"] = "ecu_b";
    const auto result = mapper.map(fm, two_ecu_platform(), existing);
    EXPECT_EQ(result.mapping.ecu_of("old"), "ecu_b");
}

TEST(Mapper, RateMonotonicPriorities) {
    FunctionModel fm;
    auto fast = simple_contract("fast");
    fast.tasks[0].period = Duration::ms(5);
    auto slow = simple_contract("slow");
    slow.tasks[0].period = Duration::ms(50);
    fast.pinned_ecu = "ecu_a";
    slow.pinned_ecu = "ecu_a";
    fm.upsert(fast);
    fm.upsert(slow);
    Mapper mapper;
    const auto result = mapper.map(fm, two_ecu_platform());
    EXPECT_LT(result.mapping.task_priority.at("fast.main"),
              result.mapping.task_priority.at("slow.main"));
}

TEST(Mapper, DeadlineMonotonicCanIds) {
    FunctionModel fm;
    auto c = simple_contract("sender");
    MessageSpec urgent;
    urgent.name = "urgent";
    urgent.period = Duration::ms(5);
    MessageSpec relaxed;
    relaxed.name = "relaxed";
    relaxed.period = Duration::ms(100);
    c.messages = {relaxed, urgent};
    fm.upsert(c);
    Mapper mapper;
    const auto result = mapper.map(fm, two_ecu_platform());
    EXPECT_LT(result.mapping.message_id.at("urgent"),
              result.mapping.message_id.at("relaxed"));
    EXPECT_EQ(result.mapping.message_to_bus.at("urgent"), "can0");
}

// --- Viewpoints -----------------------------------------------------------------------

TEST(TimingViewpoint, AcceptsFeasibleRejectsOverload) {
    FunctionModel fm;
    fm.upsert(simple_contract("light", 0.2));
    Mapper mapper;
    auto mapped = mapper.map(fm, two_ecu_platform());
    const auto platform = two_ecu_platform();
    TimingViewpoint timing;
    SystemModel ok{fm, platform, mapped.mapping};
    EXPECT_TRUE(timing.check(ok).passed());

    // A task whose WCRT exceeds its deadline on the same ECU.
    auto heavy = simple_contract("heavy", 0.5);
    heavy.tasks[0].deadline = Duration::us(100); // << wcet 5ms
    fm.upsert(heavy);
    mapped = mapper.map(fm, platform);
    SystemModel bad{fm, platform, mapped.mapping};
    const auto report = timing.check(bad);
    EXPECT_FALSE(report.passed());
}

TEST(SafetyViewpoint, DetectsIntegrityInversion) {
    FunctionModel fm;
    auto critical = simple_contract("planner", 0.1, Asil::D);
    critical.requires_.push_back(RequiredService{"object_list"});
    auto lowly = simple_contract("tracker", 0.1, Asil::A);
    lowly.provides.push_back(ProvidedService{"object_list", 0.0, 0});
    fm.upsert(critical);
    fm.upsert(lowly);
    Mapper mapper;
    const auto mapped = mapper.map(fm, two_ecu_platform());
    const auto platform = two_ecu_platform();
    SafetyViewpoint safety;
    const auto report = safety.check(SystemModel{fm, platform, mapped.mapping});
    EXPECT_FALSE(report.passed());
    bool found = false;
    for (const auto& i : report.issues) {
        found = found || i.code == "safety.integrity_inversion";
    }
    EXPECT_TRUE(found);
}

TEST(SafetyViewpoint, DetectsUnresolvedService) {
    FunctionModel fm;
    auto c = simple_contract("orphan");
    c.requires_.push_back(RequiredService{"nonexistent"});
    fm.upsert(c);
    Mapper mapper;
    const auto mapped = mapper.map(fm, two_ecu_platform());
    const auto platform = two_ecu_platform();
    SafetyViewpoint safety;
    const auto report = safety.check(SystemModel{fm, platform, mapped.mapping});
    EXPECT_FALSE(report.passed());
}

TEST(SafetyViewpoint, CommonCausePlacementRejected) {
    FunctionModel fm;
    auto a = simple_contract("red_a", 0.1, Asil::D);
    auto b = simple_contract("red_b", 0.1, Asil::D);
    a.redundant_with = "red_b";
    a.pinned_ecu = "ecu_a";
    b.pinned_ecu = "ecu_a"; // forced common cause
    fm.upsert(a);
    fm.upsert(b);
    Mapper mapper;
    const auto mapped = mapper.map(fm, two_ecu_platform());
    const auto platform = two_ecu_platform();
    SafetyViewpoint safety;
    const auto report = safety.check(SystemModel{fm, platform, mapped.mapping});
    EXPECT_FALSE(report.passed());
}

TEST(SecurityViewpoint, DerivesGrantsAndRateBounds) {
    FunctionModel fm;
    auto provider = simple_contract("srv");
    provider.provides.push_back(ProvidedService{"telemetry", 50.0, 0});
    auto client = simple_contract("cli");
    client.requires_.push_back(RequiredService{"telemetry"});
    fm.upsert(provider);
    fm.upsert(client);
    Mapper mapper;
    const auto mapped = mapper.map(fm, two_ecu_platform());
    const auto platform = two_ecu_platform();
    SecurityViewpoint security;
    const auto report = security.check(SystemModel{fm, platform, mapped.mapping});
    EXPECT_TRUE(report.passed());
    ASSERT_EQ(security.policy().grants.size(), 1u);
    EXPECT_EQ(security.policy().grants[0].first, "cli");
    ASSERT_EQ(security.policy().rate_bounds.size(), 1u);
    EXPECT_DOUBLE_EQ(security.policy().rate_bounds[0].max_rate_hz, 50.0);
}

TEST(SecurityViewpoint, ZoneViolationBlocksGrant) {
    FunctionModel fm;
    auto provider = simple_contract("vault");
    provider.provides.push_back(ProvidedService{"keys", 0.0, 3});
    auto client = simple_contract("app");
    client.security_level = 0;
    client.requires_.push_back(RequiredService{"keys"});
    fm.upsert(provider);
    fm.upsert(client);
    Mapper mapper;
    const auto mapped = mapper.map(fm, two_ecu_platform());
    const auto platform = two_ecu_platform();
    SecurityViewpoint security;
    const auto report = security.check(SystemModel{fm, platform, mapped.mapping});
    EXPECT_FALSE(report.passed());
    EXPECT_TRUE(security.policy().grants.empty());
}

TEST(SecurityViewpoint, ExposedCriticalWithoutGateway) {
    FunctionModel fm;
    auto telematics = simple_contract("telematics");
    telematics.external_interface = true;
    telematics.requires_.push_back(RequiredService{"brake_cmd"});
    auto brake = simple_contract("brake", 0.1, Asil::D);
    brake.provides.push_back(ProvidedService{"brake_cmd", 0.0, 0});
    fm.upsert(telematics);
    fm.upsert(brake);
    Mapper mapper;
    const auto mapped = mapper.map(fm, two_ecu_platform());
    const auto platform = two_ecu_platform();
    SecurityViewpoint security;
    const auto report = security.check(SystemModel{fm, platform, mapped.mapping});
    EXPECT_FALSE(report.passed());
}

TEST(SecurityViewpoint, GatewayMediationDowngradesToWarning) {
    FunctionModel fm;
    auto telematics = simple_contract("telematics");
    telematics.external_interface = true;
    telematics.requires_.push_back(RequiredService{"filtered"});
    auto gw = simple_contract("gateway");
    gw.gateway = true;
    gw.provides.push_back(ProvidedService{"filtered", 0.0, 0});
    gw.requires_.push_back(RequiredService{"brake_cmd"});
    auto brake = simple_contract("brake", 0.1, Asil::D);
    brake.provides.push_back(ProvidedService{"brake_cmd", 0.0, 0});
    fm.upsert(telematics);
    fm.upsert(gw);
    fm.upsert(brake);
    Mapper mapper;
    const auto mapped = mapper.map(fm, two_ecu_platform());
    const auto platform = two_ecu_platform();
    SecurityViewpoint security;
    const auto report = security.check(SystemModel{fm, platform, mapped.mapping});
    EXPECT_TRUE(report.passed());
    EXPECT_GT(report.count(IssueSeverity::Warning), 0u);
}

// --- Dependency graph & FMEA ------------------------------------------------------------

struct GraphFixture {
    FunctionModel fm;
    PlatformModel platform = two_ecu_platform();
    Mapping mapping;
    GraphFixture() {
        auto brake = simple_contract("brake_ctrl", 0.1, Asil::D);
        brake.provides.push_back(ProvidedService{"brake_cmd", 0.0, 0});
        auto acc = simple_contract("acc", 0.1, Asil::C);
        acc.requires_.push_back(RequiredService{"brake_cmd"});
        MessageSpec m;
        m.name = "speed";
        m.period = Duration::ms(10);
        acc.messages.push_back(m);
        fm.upsert(brake);
        fm.upsert(acc);
        Mapper mapper;
        mapping = mapper.map(fm, platform).mapping;
    }
};

TEST(DependencyGraph, BuildsCrossLayerNodes) {
    GraphFixture fx;
    const auto g = build_dependency_graph(fx.fm, fx.platform, fx.mapping);
    EXPECT_TRUE(g.has_node({DepNodeKind::Component, "brake_ctrl"}));
    EXPECT_TRUE(g.has_node({DepNodeKind::Service, "brake_cmd"}));
    EXPECT_TRUE(g.has_node({DepNodeKind::Message, "speed"}));
    EXPECT_TRUE(g.has_node({DepNodeKind::Ecu, "ecu_a"}));
    EXPECT_TRUE(g.has_node({DepNodeKind::ThermalZone, "engine_bay"}));
    EXPECT_GT(g.edge_count(), 5u);
}

TEST(DependencyGraph, FailurePropagatesUpwards) {
    GraphFixture fx;
    const auto g = build_dependency_graph(fx.fm, fx.platform, fx.mapping);
    // Losing the ECU hosting brake_ctrl must affect brake_ctrl, the service,
    // and (transitively) the acc component.
    const std::string brake_ecu = fx.mapping.ecu_of("brake_ctrl");
    const auto affected = g.dependents_of({DepNodeKind::Ecu, brake_ecu});
    EXPECT_TRUE(affected.count({DepNodeKind::Component, "brake_ctrl"}) > 0);
    EXPECT_TRUE(affected.count({DepNodeKind::Service, "brake_cmd"}) > 0);
    EXPECT_TRUE(affected.count({DepNodeKind::Component, "acc"}) > 0);
}

TEST(DependencyGraph, DependenciesOfComponent) {
    GraphFixture fx;
    const auto g = build_dependency_graph(fx.fm, fx.platform, fx.mapping);
    const auto deps = g.dependencies_of({DepNodeKind::Component, "acc"});
    EXPECT_TRUE(deps.count({DepNodeKind::Service, "brake_cmd"}) > 0);
    EXPECT_TRUE(deps.count({DepNodeKind::Component, "brake_ctrl"}) > 0);
}

TEST(Fmea, LossOfCriticalComponentNotFailOperationalWithoutRedundancy) {
    GraphFixture fx;
    const auto g = build_dependency_graph(fx.fm, fx.platform, fx.mapping);
    FmeaEngine engine(g, fx.fm);
    const auto entry = engine.analyze({DepNodeKind::Component, "brake_ctrl"});
    EXPECT_EQ(entry.worst_asil, Asil::D);
    EXPECT_FALSE(entry.fail_operational);
    EXPECT_FALSE(entry.lost_components.empty());
}

TEST(Fmea, RedundancyMakesFailOperational) {
    GraphFixture fx;
    auto backup = simple_contract("brake_ctrl_b", 0.1, Asil::D);
    backup.redundant_with = "brake_ctrl";
    fx.fm.upsert(backup);
    // Downgrade the dependent consumer below ASIL C: the fixture's acc would
    // otherwise (correctly) keep the verdict at not-fail-operational, since
    // losing brake_ctrl also stalls acc and nothing covers *it*.
    auto consumer = simple_contract("acc", 0.1, Asil::B);
    consumer.requires_.push_back(RequiredService{"brake_cmd"});
    fx.fm.upsert(consumer);
    Mapper mapper;
    fx.mapping = mapper.map(fx.fm, fx.platform).mapping;
    const auto g = build_dependency_graph(fx.fm, fx.platform, fx.mapping);
    FmeaEngine engine(g, fx.fm);
    const auto entry = engine.analyze({DepNodeKind::Component, "brake_ctrl"});
    EXPECT_TRUE(entry.fail_operational);
    ASSERT_FALSE(entry.mitigations.empty());
    EXPECT_NE(entry.mitigations.front().find("brake_ctrl_b"), std::string::npos);
}

TEST(Fmea, BabblingAffectsBusNeighbours) {
    GraphFixture fx;
    const auto g = build_dependency_graph(fx.fm, fx.platform, fx.mapping);
    FmeaEngine engine(g, fx.fm);
    const auto entry =
        engine.analyze({DepNodeKind::Message, "speed"}, FailureMode::Babbling);
    bool bus_affected = false;
    for (const auto& node : entry.affected) {
        bus_affected = bus_affected || node.kind == DepNodeKind::Bus;
    }
    EXPECT_TRUE(bus_affected);
}

TEST(Fmea, SweepCoversResources) {
    GraphFixture fx;
    const auto g = build_dependency_graph(fx.fm, fx.platform, fx.mapping);
    FmeaEngine engine(g, fx.fm);
    const auto report = engine.analyze_all();
    // 2 ECUs + 1 bus + 2 components.
    EXPECT_EQ(report.entries.size(), 5u);
    EXPECT_NE(report.find({DepNodeKind::Ecu, "ecu_a"}), nullptr);
}

// --- MCC -------------------------------------------------------------------------------

TEST(Mcc, AcceptsFeasibleChange) {
    Mcc mcc(two_ecu_platform());
    ChangeRequest change;
    change.description = "initial deployment";
    change.contracts.push_back(simple_contract("comp_a", 0.2));
    const auto report = mcc.integrate(change);
    EXPECT_TRUE(report.accepted);
    EXPECT_EQ(mcc.functions().size(), 1u);
    EXPECT_FALSE(report.mapping.ecu_of("comp_a").empty());
    EXPECT_EQ(mcc.integrations_accepted(), 1u);
    // Committed artifacts exist.
    EXPECT_GT(mcc.dependency_graph().node_count(), 0u);
}

TEST(Mcc, RejectsOverloadKeepsOldModel) {
    Mcc mcc(two_ecu_platform());
    ChangeRequest ok;
    ok.contracts.push_back(simple_contract("base", 0.2));
    ASSERT_TRUE(mcc.integrate(ok).accepted);

    ChangeRequest bad;
    bad.description = "overload";
    for (int i = 0; i < 8; ++i) {
        bad.contracts.push_back(simple_contract("hog" + std::to_string(i), 0.5));
    }
    const auto report = mcc.integrate(bad);
    EXPECT_FALSE(report.accepted);
    EXPECT_FALSE(report.rejection_reason.empty());
    // Old model untouched.
    EXPECT_EQ(mcc.functions().size(), 1u);
    EXPECT_NE(mcc.functions().find("base"), nullptr);
}

TEST(Mcc, RejectsSafetyViolation) {
    Mcc mcc(two_ecu_platform());
    ChangeRequest change;
    auto critical = simple_contract("planner", 0.1, Asil::D);
    critical.requires_.push_back(RequiredService{"objects"});
    auto weak = simple_contract("weak_provider", 0.1, Asil::A);
    weak.provides.push_back(ProvidedService{"objects", 0.0, 0});
    change.contracts = {critical, weak};
    const auto report = mcc.integrate(change);
    EXPECT_FALSE(report.accepted);
    const auto* safety = report.viewpoint("safety");
    ASSERT_NE(safety, nullptr);
    EXPECT_FALSE(safety->passed());
}

TEST(Mcc, RemoveComponent) {
    Mcc mcc(two_ecu_platform());
    ChangeRequest add;
    add.contracts.push_back(simple_contract("comp_a"));
    ASSERT_TRUE(mcc.integrate(add).accepted);
    ChangeRequest remove;
    remove.kind = ChangeRequest::Kind::Remove;
    remove.component = "comp_a";
    EXPECT_TRUE(mcc.integrate(remove).accepted);
    EXPECT_TRUE(mcc.functions().empty());
    ChangeRequest remove_again;
    remove_again.kind = ChangeRequest::Kind::Remove;
    remove_again.component = "comp_a";
    EXPECT_FALSE(mcc.integrate(remove_again).accepted);
}

TEST(Mcc, UpdateKeepsPlacementStable) {
    Mcc mcc(two_ecu_platform());
    ChangeRequest add;
    add.contracts.push_back(simple_contract("stable", 0.2));
    add.contracts.push_back(simple_contract("other", 0.2));
    ASSERT_TRUE(mcc.integrate(add).accepted);
    const std::string before = mcc.mapping().ecu_of("stable");

    ChangeRequest update;
    update.kind = ChangeRequest::Kind::Update;
    update.contracts.push_back(simple_contract("stable", 0.25));
    ASSERT_TRUE(mcc.integrate(update).accepted);
    EXPECT_EQ(mcc.mapping().ecu_of("stable"), before);
}

TEST(Mcc, MakeRteConfigCarriesPolicyAndPriorities) {
    Mcc mcc(two_ecu_platform());
    ChangeRequest change;
    auto provider = simple_contract("srv");
    provider.provides.push_back(ProvidedService{"data", 25.0, 0});
    auto client = simple_contract("cli");
    client.requires_.push_back(RequiredService{"data"});
    change.contracts = {provider, client};
    ASSERT_TRUE(mcc.integrate(change).accepted);

    const auto config = mcc.make_rte_config();
    ASSERT_EQ(config.components.size(), 2u);
    ASSERT_EQ(config.grants.size(), 1u);
    EXPECT_EQ(config.grants[0].first, "cli");
    EXPECT_EQ(config.grants[0].second, "data");
    for (const auto& spec : config.components) {
        for (const auto& t : spec.tasks) {
            EXPECT_NE(t.priority, 1000) << "priority must come from the mapping";
        }
    }
}

TEST(Mcc, ObservedWcetFeedback) {
    Mcc mcc(two_ecu_platform());
    ChangeRequest change;
    change.contracts.push_back(simple_contract("comp", 0.1)); // wcet = 1ms
    ASSERT_TRUE(mcc.integrate(change).accepted);
    mcc.ingest_observed_wcet("comp.main", Duration::us(900));
    EXPECT_TRUE(mcc.wcet_violations().empty());
    mcc.ingest_observed_wcet("comp.main", Duration::us(1'500));
    const auto violations = mcc.wcet_violations();
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations[0], "comp.main");
    EXPECT_EQ(mcc.observed_wcet("comp.main"), Duration::us(1'500));
}

TEST(Mcc, RevalidateWithSpeed) {
    Mcc mcc(two_ecu_platform());
    ChangeRequest change;
    auto c = simple_contract("tight", 0.35); // 3.5ms per 10ms
    c.pinned_ecu = "ecu_a";
    change.contracts.push_back(c);
    ASSERT_TRUE(mcc.integrate(change).accepted);
    EXPECT_TRUE(mcc.revalidate_with_speed("ecu_a", 1.0));
    EXPECT_TRUE(mcc.revalidate_with_speed("ecu_a", 0.5)); // 7ms < 10ms deadline
    EXPECT_FALSE(mcc.revalidate_with_speed("ecu_a", 0.3)); // 11.6ms > 10ms
}

TEST(Mcc, CopyIsAnIndependentValue) {
    Mcc original(two_ecu_platform());
    ChangeRequest change;
    change.contracts.push_back(simple_contract("comp", 0.1));
    ASSERT_TRUE(original.integrate(change).accepted);

    Mcc copy = original;
    EXPECT_EQ(copy.functions().size(), 1u);
    EXPECT_EQ(copy.mapping().component_to_ecu, original.mapping().component_to_ecu);
    EXPECT_EQ(copy.dependency_graph().node_count(), original.dependency_graph().node_count());
    EXPECT_EQ(copy.integrations_attempted(), 1u);
    EXPECT_EQ(copy.integrations_accepted(), 1u);
    // The copy shares the committed configuration; a rejected change
    // commits nothing, so it still does afterwards.
    EXPECT_EQ(&copy.functions(), &original.functions());
    ChangeRequest overload;
    for (const char* hog : {"hog_a", "hog_b", "hog_c"}) {
        overload.contracts.push_back(simple_contract(hog, 0.9));
    }
    EXPECT_FALSE(copy.integrate(overload).accepted);
    EXPECT_EQ(&copy.functions(), &original.functions());

    ChangeRequest more;
    more.contracts.push_back(simple_contract("extra", 0.1));
    ASSERT_TRUE(copy.integrate(more).accepted);
    copy.ingest_observed_wcet("comp.main", Duration::us(1'500));
    EXPECT_EQ(copy.functions().size(), 2u);
    EXPECT_EQ(copy.integrations_attempted(), 3u);
    EXPECT_EQ(copy.wcet_violations().size(), 1u);
    // The copy committed a configuration of its own; the original kept the
    // one they shared.
    EXPECT_NE(&copy.functions(), &original.functions());
    EXPECT_GT(copy.dependency_graph().node_count(), original.dependency_graph().node_count());
    EXPECT_EQ(copy.platform(), original.platform());

    EXPECT_EQ(original.functions().size(), 1u);
    EXPECT_EQ(original.integrations_attempted(), 1u);
    EXPECT_EQ(original.integrations_accepted(), 1u);
    EXPECT_EQ(original.observed_wcet("comp.main"), Duration::zero());
    EXPECT_TRUE(original.wcet_violations().empty());
}

// --- integrate_declared: the per-process memo of initial analyses ------------------

TEST(IntegrateDeclared, EveryCallReadsAsItsOwnIntegration) {
    const std::string text = R"(
        component declared_once { asil B; task main { wcet 1ms; period 10ms; } }
    )";
    std::optional<InitialIntegration> first;
    for (const char* description : {"first system", "second system"}) {
        auto analysed = integrate_declared(two_ecu_platform(), text, description);
        ASSERT_TRUE(analysed.has_value());
        EXPECT_TRUE(analysed->report->accepted);
        EXPECT_EQ(analysed->mcc.functions().size(), 1u);
        EXPECT_EQ(analysed->mcc.integrations_attempted(), 1u);
        EXPECT_EQ(analysed->mcc.integrations_accepted(), 1u);
        if (!first.has_value()) {
            first = std::move(analysed);
            continue;
        }
        // Every call shares one analysis: the report and the committed
        // configuration are the first call's.
        EXPECT_EQ(analysed->report, first->report);
        EXPECT_EQ(&analysed->mcc.functions(), &first->mcc.functions());
        EXPECT_EQ(&analysed->mcc.fmea(), &first->mcc.fmea());
        EXPECT_EQ(&analysed->mcc.security_policy(), &first->mcc.security_policy());
    }
}

TEST(IntegrateDeclared, RejectedAnalysisIsSharedLikeAnAcceptedOne) {
    const std::string text = R"(
        component overload_a { task burn { wcet 8ms; period 10ms; } }
        component overload_b { task burn { wcet 8ms; period 10ms; } }
        component overload_c { task burn { wcet 8ms; period 10ms; } }
    )";
    for (int call = 0; call < 2; ++call) {
        const auto analysed = integrate_declared(two_ecu_platform(), text, "overload");
        ASSERT_TRUE(analysed.has_value());
        EXPECT_FALSE(analysed->report->accepted);
        EXPECT_FALSE(analysed->report->rejection_reason.empty());
        EXPECT_TRUE(analysed->mcc.functions().empty());
        EXPECT_EQ(analysed->mcc.integrations_attempted(), 1u);
        EXPECT_EQ(analysed->mcc.integrations_accepted(), 0u);
    }
}

TEST(IntegrateDeclared, ParseErrorThrowsEveryTimeAndStoresNothing) {
    const std::string text = "component broken { task t { wcet 1ms; } ";
    for (int call = 0; call < 2; ++call) {
        EXPECT_THROW((void)integrate_declared(two_ecu_platform(), text, "broken"),
                     util::ParseError);
    }
}

TEST(IntegrateDeclared, ConcurrentCopiesChangeIndependently) {
    // Two threads take copies of one analysis at once and then change them
    // in the field: each copy commits its own configuration, the memo's
    // stays as analysed. The TSan job checks the shared state.
    static int repetition = 0;
    const std::string text = "component concurrent_copy" + std::to_string(repetition++) +
                             " { asil B; task main { wcet 1ms; period 10ms; } }";
    std::size_t sizes[2] = {};
    std::latch start(2);
    const auto change = [&](int index) {
        start.arrive_and_wait();
        auto analysed = integrate_declared(two_ecu_platform(), text, "concurrent");
        ASSERT_TRUE(analysed.has_value());
        ChangeRequest more;
        more.contracts.push_back(simple_contract("extra" + std::to_string(index), 0.1));
        ASSERT_TRUE(analysed->mcc.integrate(more).accepted);
        analysed->mcc.ingest_observed_wcet("extra" + std::to_string(index) + ".main",
                                           Duration::us(100));
        sizes[index] = analysed->mcc.functions().size();
    };
    std::thread other(change, 1);
    change(0);
    other.join();
    EXPECT_EQ(sizes[0], 2u);
    EXPECT_EQ(sizes[1], 2u);
    const auto later = integrate_declared(two_ecu_platform(), text, "later");
    ASSERT_TRUE(later.has_value());
    EXPECT_EQ(later->mcc.functions().size(), 1u);
    EXPECT_EQ(later->mcc.integrations_attempted(), 1u);
    EXPECT_EQ(later->mcc.observed_wcet("extra0.main"), Duration::zero());
}

TEST(IntegrateDeclared, TextWithoutContractsAnalysesNothing) {
    for (int call = 0; call < 2; ++call) {
        EXPECT_FALSE(
            integrate_declared(two_ecu_platform(), "// no component yet\n", "empty")
                .has_value());
    }
}

TEST(Mcc, FmeaCommittedOnAccept) {
    Mcc mcc(two_ecu_platform());
    ChangeRequest change;
    change.contracts.push_back(simple_contract("solo", 0.1, Asil::D));
    ASSERT_TRUE(mcc.integrate(change).accepted);
    EXPECT_FALSE(mcc.fmea().entries.empty());
    EXPECT_GT(mcc.fmea().not_fail_operational(), 0u); // no redundancy declared
}

} // namespace
