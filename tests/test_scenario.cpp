// Tests for the sa::scenario composition root: vehicle/scenario builders,
// the canonical assembly order's observable contracts, multi-bus gateway
// routing, multi-vehicle scenarios with per-vehicle coordinators, the
// cooperation substrate (trust/platoon/V2V) and scripted events.

#include <gtest/gtest.h>

#include "scenario/scenario_builder.hpp"
#include "thread_budget.hpp"

namespace {

using namespace sa;
using sim::Duration;
using sim::Time;

const char* kMiniContracts = R"(
    component ctrl {
      asil D;
      security_level 2;
      task control { wcet 500us; period 10ms; deadline 8ms; }
      provides service cmd { max_rate 200/s; min_client_level 1; }
    }
    component app {
      asil C;
      security_level 1;
      task plan { wcet 1ms; period 20ms; }
      requires service cmd;
    }
)";

// --- VehicleBuilder basics ---------------------------------------------------------

TEST(VehicleBuilder, ComposesIntegratesAndRuns) {
    sim::Simulator simulator(1);
    scenario::VehicleBuilder builder("ego");
    builder.ecu({"ecu0", 1.0, 0.75, model::Asil::D, "cabin", "main"})
        .contracts(kMiniContracts)
        .rate_ids(Duration::ms(100))
        .skill_graph("acc")
        .full_layer_stack()
        .self_model(Duration::ms(100));
    auto vehicle = builder.build(simulator);

    EXPECT_TRUE(vehicle->integration_report().accepted);
    EXPECT_TRUE(vehicle->rte().has_component("ctrl"));
    EXPECT_TRUE(vehicle->rte().has_component("app"));
    EXPECT_TRUE(vehicle->has_ids());
    EXPECT_TRUE(vehicle->has_abilities());
    EXPECT_TRUE(vehicle->has_self_model());
    for (const auto id : {core::LayerId::Platform, core::LayerId::Network,
                          core::LayerId::Safety, core::LayerId::Ability,
                          core::LayerId::Objective}) {
        EXPECT_TRUE(vehicle->coordinator().has_layer(id));
    }

    simulator.run_until(Time(Duration::sec(1).count_ns()));
    EXPECT_GT(vehicle->rte().total_completed_jobs(), 0u);
    EXPECT_EQ(vehicle->rte().total_deadline_misses(), 0u);
    EXPECT_GT(vehicle->self_model().history().size(), 1u);
    const auto report = vehicle->report();
    EXPECT_EQ(report.jobs_completed, vehicle->rte().total_completed_jobs());
    EXPECT_TRUE(report.self.has_value());
}

TEST(VehicleBuilder, RequireAcceptedPolicyThrowsOnRejectedContracts) {
    sim::Simulator simulator(1);
    scenario::VehicleBuilder builder("ego");
    builder.ecu({"tiny", 1.0, 0.75, model::Asil::D, "cabin", "main"})
        .contracts(R"(
            component hog {
              asil QM;
              task burn { wcet 9ms; period 10ms; }
            }
            component hog2 {
              asil QM;
              task burn { wcet 9ms; period 10ms; }
            }
        )");
    EXPECT_THROW((void)builder.build(simulator), ContractViolation);
}

TEST(VehicleBuilder, ReportOnlyPolicyKeepsRejectionWithoutDeploying) {
    sim::Simulator simulator(1);
    scenario::VehicleBuilder builder("ego");
    builder.ecu({"tiny", 1.0, 0.75, model::Asil::D, "cabin", "main"})
        .contracts(R"(
            component hog {
              asil QM;
              task burn { wcet 9ms; period 10ms; }
            }
            component hog2 {
              asil QM;
              task burn { wcet 9ms; period 10ms; }
            }
        )")
        .integration_policy(scenario::IntegrationPolicy::ReportOnly);
    auto vehicle = builder.build(simulator);
    EXPECT_FALSE(vehicle->integration_report().accepted);
    EXPECT_TRUE(vehicle->rte().component_names().empty());
}

TEST(VehicleBuilder, ModelDomainProductsMatchDeclarations) {
    scenario::VehicleBuilder builder("fig");
    builder.ecu({"a", 1.0, 0.75, model::Asil::D, "cabin", "main"})
        .ecu({"b", 0.5, 0.75, model::Asil::B, "trunk", "main"}, {0.5})
        .can_bus({"can0", 500'000, 0.6})
        .contracts(kMiniContracts);
    const auto platform = builder.platform_model();
    ASSERT_EQ(platform.ecus.size(), 2u);
    EXPECT_EQ(platform.ecus[1].name, "b");
    EXPECT_DOUBLE_EQ(platform.ecus[1].speed_factor, 0.5);
    ASSERT_EQ(platform.buses.size(), 1u);
    EXPECT_EQ(platform.buses[0].name, "can0");
    const auto change = builder.change_request();
    ASSERT_EQ(change.contracts.size(), 2u);
    EXPECT_EQ(change.contracts[0].component, "ctrl");
}

TEST(VehicleBuilder, RawTasksAndMonitorDeclarations) {
    sim::Simulator simulator(3);
    scenario::VehicleBuilder builder("bench");
    builder.ecu({"ecu0", 1.0, 0.75, model::Asil::D, "cabin", "main"}, {1.0});
    rte::RtTaskConfig t;
    t.name = "app";
    t.priority = 10;
    t.period = Duration::ms(5);
    t.wcet = Duration::us(400);
    t.bcet = t.wcet;
    t.randomize_exec = false;
    builder.rt_task("ecu0", t)
        .deadline_monitor("ecu0")
        .budget_monitor("ecu0", monitor::BudgetMode::Warn, Duration::ms(2))
        .heartbeat_monitor("app", Duration::ms(100))
        .monitor_overhead_task("ecu0", Duration::ms(10), Duration::us(50), 100);
    auto vehicle = builder.build(simulator);

    EXPECT_EQ(vehicle->monitors().monitor_count(), 3u);
    EXPECT_NE(vehicle->rt_task("ecu0", "app"), 0u);
    simulator.run_until(Time(Duration::sec(1).count_ns()));
    EXPECT_GT(vehicle->monitors().total_checks(), 0u);
    // 1 app task at 5 ms + 1 overhead task at 10 ms.
    EXPECT_GE(vehicle->rte().total_completed_jobs(), 290u);
}

TEST(VehicleBuilder, AbilityLayerRequiresSkillGraph) {
    sim::Simulator simulator(1);
    scenario::VehicleBuilder builder("ego");
    builder.ecu({"ecu0", 1.0, 0.75, model::Asil::D, "cabin", "main"})
        .layers({core::LayerId::Ability});
    EXPECT_THROW((void)builder.build(simulator), ContractViolation);
}

// --- Multi-bus gateway routing -----------------------------------------------------

TEST(BusGateway, ForwardsMatchingFramesAcrossBuses) {
    sim::Simulator simulator(9);
    scenario::VehicleBuilder builder("zonal");
    rte::RtTaskConfig tx;
    tx.name = "tx";
    tx.priority = 10;
    tx.period = Duration::ms(10);
    tx.wcet = Duration::us(100);
    tx.randomize_exec = false;
    rte::RtTaskConfig rx;
    rx.name = "rx";
    rx.priority = 10;
    rx.period = Duration::zero(); // sporadic, CAN-activated
    rx.wcet = Duration::us(50);
    rx.randomize_exec = false;
    builder.ecu({"front", 1.0, 0.75, model::Asil::D, "cabin", "main"})
        .ecu({"rear", 1.0, 0.75, model::Asil::D, "trunk", "main"})
        .can_bus({"can_a", 500'000, 0.6})
        .can_bus({"can_b", 250'000, 0.6})
        .can_gateway({"gw",
                      {{"can_a", "can_b", 0x100, 0x700},
                       {"can_b", "can_a", 0x300, 0x700}},
                      Duration::us(20)})
        .rt_task("front", tx)
        .rt_task("rear", rx)
        .can_tx_on_completion("front", "tx", "can_a",
                              can::CanFrame::make(0x120, {0xAB}))
        .can_rx_activation("rear", "rx", "can_b", 0x100, 0x700);
    auto vehicle = builder.build(simulator);

    simulator.run_until(Time(Duration::sec(1).count_ns()));

    auto& gateway = vehicle->bus_gateway("gw");
    // 100 periods -> 100 frames, all matching the 0x100/0x700 route.
    EXPECT_EQ(vehicle->can_endpoint("front", "can_a").transmissions(), 100u);
    EXPECT_EQ(gateway.frames_forwarded(), 100u);
    EXPECT_EQ(gateway.frames_dropped(), 0u);
    // Every forwarded frame released the sporadic task in the other zone.
    EXPECT_EQ(vehicle->can_endpoint("rear", "can_b").activations(), 100u);
    EXPECT_EQ(gateway.attached_bus_count(), 2u);
    // Nothing flows back: the reverse route matches a different id range.
    EXPECT_EQ(vehicle->rte().can_bus("can_a").frames_transmitted(), 100u);
}

TEST(VehicleBuilder, VehicleOnExternalSimulatorCanDieFirst) {
    // A Vehicle built on an externally owned simulator must cancel its own
    // periodic activities (tactic planner, self-model capture) and drop
    // in-flight gateway forwards on destruction — running the simulator
    // afterwards must not touch the destroyed vehicle (ASan-verified).
    sim::Simulator simulator(5);
    {
        scenario::VehicleBuilder builder("shortlived");
        rte::RtTaskConfig tx;
        tx.name = "tx";
        tx.priority = 10;
        tx.period = Duration::ms(10);
        tx.wcet = Duration::us(100);
        tx.randomize_exec = false;
        builder.ecu({"ecu0", 1.0, 0.75, model::Asil::D, "cabin", "main"})
            .can_bus({"can_a", 500'000, 0.6})
            .can_bus({"can_b", 500'000, 0.6})
            .can_gateway({"gw", {{"can_a", "can_b", 0x100, 0x700}}, Duration::ms(5)})
            .rt_task("ecu0", tx)
            .can_tx_on_completion("ecu0", "tx", "can_a",
                                  can::CanFrame::make(0x100, {1}))
            .skill_graph("acc")
            .tactic("noop", skills::acc::kAccDriving, 0.0, 0.5, 1,
                    [](scenario::Vehicle&) {})
            .plan_tactics_every(Duration::ms(50))
            .self_model(Duration::ms(20));
        auto vehicle = builder.build(simulator);
        // Stop mid-flight: a frame has been forwarded into the gateway's
        // 5 ms store-and-forward window but not yet sent on can_b.
        simulator.run_until(Time(Duration::ms(11).count_ns()));
        EXPECT_GT(vehicle->bus_gateway("gw").frames_forwarded(), 0u);
    }
    // The vehicle is gone; pending events must be inert.
    simulator.run_until(Time(Duration::sec(1).count_ns()));
    SUCCEED();
}

TEST(BusGateway, RouteRequiresDistinctBuses) {
    sim::Simulator simulator(1);
    can::CanBus bus(simulator, "solo");
    can::BusGateway gateway("gw");
    EXPECT_THROW(gateway.add_route(bus, bus, 0, 0), ContractViolation);
}

// --- Scenario: multiple vehicles, scripts, substrate --------------------------------

TEST(ScenarioBuilder, TwoVehiclesHaveIndependentStacks) {
    scenario::ScenarioBuilder builder(17);
    for (const char* name : {"lead", "follow"}) {
        builder.vehicle(name)
            .ecu({"ecu0", 1.0, 0.75, model::Asil::D, "cabin", "main"})
            .contracts(kMiniContracts)
            .rate_ids(Duration::ms(100), 400.0)
            .full_layer_stack()
            .skill_graph("acc");
    }
    auto scenario = builder.build();
    ASSERT_EQ(scenario->vehicle_names().size(), 2u);

    // Attack only the follower; the leader's coordinator must stay silent.
    auto& follow = scenario->vehicle("follow");
    follow.rte().access().grant("ctrl", "cmd");
    follow.faults().compromise_with_message_storm("ctrl", "cmd", Duration::ms(2));
    scenario->run(Duration::sec(2));

    EXPECT_GT(follow.coordinator().problems_handled(), 0u);
    EXPECT_EQ(follow.rte().component("ctrl").state(), rte::ComponentState::Contained);
    EXPECT_EQ(scenario->vehicle("lead").coordinator().problems_handled(), 0u);
    EXPECT_EQ(scenario->vehicle("lead").rte().component("ctrl").state(),
              rte::ComponentState::Running);

    const auto report = scenario->report();
    ASSERT_EQ(report.vehicles.size(), 2u);
    EXPECT_EQ(report.vehicle("follow").problems_handled,
              follow.coordinator().problems_handled());
    EXPECT_FALSE(report.str().empty());
}

TEST(ScenarioBuilder, ScriptedEventsFireAtTheirTime) {
    scenario::ScenarioBuilder builder(4);
    builder.vehicle("ego").ecu({"ecu0", 1.0, 0.75, model::Asil::D, "cabin", "main"});
    std::vector<double> fired_at;
    builder.at(Duration::ms(250), [&](scenario::Scenario& s) {
        fired_at.push_back(s.simulator().now().s());
    });
    builder.at(Duration::ms(750), [&](scenario::Scenario& s) {
        fired_at.push_back(s.simulator().now().s());
    });
    auto scenario = builder.build();
    scenario->run(Duration::ms(500));
    ASSERT_EQ(fired_at.size(), 1u);
    EXPECT_DOUBLE_EQ(fired_at[0], 0.25);
    scenario->run(Duration::sec(1));
    ASSERT_EQ(fired_at.size(), 2u);
    EXPECT_DOUBLE_EQ(fired_at[1], 0.75);
}

TEST(ScenarioBuilder, TrustSeedsAndPlatoonFormation) {
    scenario::ScenarioBuilder builder(3);
    platoon::PlatoonConfig cfg;
    cfg.trust_threshold = 0.55;
    cfg.assumed_faults = 1;
    builder.trust("good_a", 10)
        .trust("good_b", 10)
        .trust("liar", 0, 10)
        .platoon_config(cfg)
        .platoon_candidate({"good_a", 0.9, 25.0, 10.0, false})
        .platoon_candidate({"good_b", 0.8, 22.0, 12.0, false})
        .platoon_candidate({"liar", 0.9, 50.0, 2.0, false});
    auto scenario = builder.build();
    EXPECT_GT(scenario->trust().trust("good_a"), 0.8);
    EXPECT_LT(scenario->trust().trust("liar"), 0.2);

    const auto agreement = scenario->form_platoon();
    ASSERT_TRUE(agreement.formed);
    EXPECT_EQ(agreement.members.size(), 2u); // the liar is gated out
    EXPECT_TRUE(agreement.speed_safe);
}

TEST(ScenarioBuilder, V2vMediumDeliversBetweenVehicles) {
    scenario::ScenarioBuilder builder(6);
    builder.vehicle("a").ecu({"ecu0", 1.0, 0.75, model::Asil::D, "cabin", "main"});
    builder.vehicle("b").ecu({"ecu0", 1.0, 0.75, model::Asil::D, "cabin", "main"});
    builder.v2v(0.0, Duration::ms(10));
    auto scenario = builder.build();

    int received = 0;
    scenario->v2v().attach("a", scenario->vehicle("a").simulator(),
                           [&](const v2v::Frame&, double) { ++received; });
    scenario->v2v().attach("b", scenario->vehicle("b").simulator(),
                           [&](const v2v::Frame&, double) { ++received; });
    scenario->simulator().schedule(Duration::ms(5), [&] {
        scenario->v2v().transmit(v2v::Medium::cam("a", 0.0, 20.0));
    });
    scenario->run(Duration::ms(100));
    EXPECT_EQ(scenario->v2v().transmissions(), 1u);
    EXPECT_EQ(received, 1); // own frames are not delivered back
}

TEST(ScenarioBuilder, MeshEndpointsFormNeighborTables) {
    scenario::ScenarioBuilder builder(8);
    builder.vehicle("a").ecu({"ecu0", 1.0, 0.75, model::Asil::D, "cabin", "main"});
    builder.vehicle("b").ecu({"ecu0", 1.0, 0.75, model::Asil::D, "cabin", "main"});
    builder.v2v({.latency = Duration::ms(5), .range_m = 200.0});
    builder.vehicle("a").mesh({}, 0.0);
    builder.vehicle("b").mesh({}, 50.0);
    auto scenario = builder.build();

    ASSERT_TRUE(scenario->has_mesh("a"));
    ASSERT_TRUE(scenario->has_mesh("b"));
    scenario->run(Duration::ms(500));
    EXPECT_TRUE(scenario->mesh("a").neighbors().contains("b"));
    EXPECT_TRUE(scenario->mesh("b").neighbors().contains("a"));
    EXPECT_GT(scenario->mesh("a").announces_sent(), 0u);
}

TEST(ScenarioBuilder, V2vEndpointWithoutMediumRejected) {
    scenario::ScenarioBuilder builder(9);
    builder.vehicle("a")
        .ecu({"ecu0", 1.0, 0.75, model::Asil::D, "cabin", "main"})
        .v2v();
    EXPECT_THROW(builder.build(), ContractViolation);
}

TEST(Scenario, WeatherAppliesToDrivingVehicles) {
    scenario::ScenarioBuilder builder(7);
    vehicle::ScenarioConfig cfg;
    cfg.control_period = Duration::ms(50);
    builder.vehicle("ego").driving(cfg).sensor(
        {vehicle::SensorType::Radar, "radar", 150.0, 0.3, 0.002});
    auto scenario = builder.build();
    auto& ego = scenario->only_vehicle();
    EXPECT_LT(ego.driving().weather().fog, 0.1);
    scenario->set_weather(vehicle::WeatherCondition::dense_fog());
    EXPECT_GT(ego.driving().weather().fog, 0.5);
}

// --- domain-partition contracts (regression: loud rejection, not partitioner UB) ----

TEST(ScenarioBuilder, ZeroDomainsRejected) {
    scenario::ScenarioBuilder builder(1);
    EXPECT_THROW(builder.domains(0), ContractViolation);
    // The builder stays usable after the rejected call.
    builder.domains(2);
    (void)builder.vehicle("ego").ecu(
        {"ecu", 1.0, 0.75, model::Asil::D, "zone", "part"});
    EXPECT_NO_THROW((void)builder.build());
}

TEST(ScenarioBuilder, OutOfRangeDomainPinRejectedAtBuild) {
    // Pin beyond the declared partition.
    scenario::ScenarioBuilder sharded(1);
    sharded.domains(2);
    sharded.vehicle("ego")
        .ecu({"ecu", 1.0, 0.75, model::Asil::D, "zone", "part"})
        .domain(2);
    EXPECT_THROW((void)sharded.build(), ContractViolation);

    // Pin on an unsharded scenario: only domain 0 exists.
    scenario::ScenarioBuilder unsharded(1);
    unsharded.vehicle("ego")
        .ecu({"ecu", 1.0, 0.75, model::Asil::D, "zone", "part"})
        .domain(1);
    EXPECT_THROW((void)unsharded.build(), ContractViolation);

    // The largest valid pin is fine.
    scenario::ScenarioBuilder ok(1);
    ok.domains(3);
    ok.vehicle("ego")
        .ecu({"ecu", 1.0, 0.75, model::Asil::D, "zone", "part"})
        .domain(2);
    EXPECT_NO_THROW((void)ok.build());
}

// --- declarative skills + unified degradation --------------------------------------

TEST(VehicleBuilder, SkillGraphFromSpecAppliesSpecAggregations) {
    sim::Simulator simulator(3);
    scenario::VehicleBuilder builder("ego");
    builder.skill_graph("platoon_follow");
    auto vehicle = builder.build(simulator);
    ASSERT_TRUE(vehicle->has_abilities());
    EXPECT_EQ(vehicle->root_skill(), skills::caps::kPlatoonFollow);
    // The spec's weighted tracking fusion is active: killing V2V leaves
    // radar-dominant partial tracking (2/3), not min-collapse to 0.
    vehicle->abilities().set_source_level(skills::caps::kV2vLink, 0.0);
    vehicle->abilities().propagate();
    EXPECT_NEAR(vehicle->abilities().level(skills::caps::kTrackLeadVehicle),
                2.0 / 3.0, 1e-12);
}

TEST(VehicleBuilder, SpecWithoutRootRejected) {
    skills::SkillGraphSpec spec("rootless");
    spec.skill("s").sink("out").depends("s", {"out"});
    scenario::VehicleBuilder builder("ego");
    EXPECT_THROW(builder.skill_graph(spec), ContractViolation);
}

TEST(VehicleBuilder, SensorBoundToSkillNodeRejectedAtBuild) {
    // A sensor's quality feeds a data source or sink; a skill's level is
    // propagated. build() rejects a skill binding instead of letting the
    // first quality update throw during run().
    auto declare = [](scenario::VehicleBuilder& builder, const char* node) {
        vehicle::ScenarioConfig cfg;
        monitor::SensorQualityConfig quality;
        quality.expected_period = cfg.control_period;
        builder.driving(cfg)
            .sensor({vehicle::SensorType::Radar, "radar", 150.0, 0.3, 0.002}, quality,
                    node)
            .skill_graph("acc");
    };
    sim::Simulator simulator(3);
    scenario::VehicleBuilder skill_bound("ego");
    declare(skill_bound, skills::acc::kPerceiveTrack);
    EXPECT_THROW((void)skill_bound.build(simulator), ContractViolation);
    scenario::VehicleBuilder source_bound("ego");
    declare(source_bound, skills::acc::kRadar);
    auto vehicle = source_bound.build(simulator);
    EXPECT_NO_THROW(simulator.run_until(Time(Duration::sec(1).count_ns())));
}

TEST(VehicleBuilder, DegradationPolicyRequiresSkillGraph) {
    sim::Simulator simulator(3);
    scenario::VehicleBuilder builder("ego");
    builder.degradation_policy(skills::DegradationPolicy{});
    EXPECT_THROW((void)builder.build(simulator), ContractViolation);
}

TEST(VehicleBuilder, DegradationPolicyRoutesAlarmsIntoAbilities) {
    sim::Simulator simulator(3);
    scenario::VehicleBuilder builder("ego");
    vehicle::ScenarioConfig cfg;
    cfg.control_period = Duration::ms(50);
    monitor::SensorQualityConfig quality;
    quality.expected_period = cfg.control_period;
    builder.driving(cfg)
        .sensor({vehicle::SensorType::Radar, "radar", 150.0, 0.3, 0.002}, quality)
        .skill_graph("acc")
        .degradation_policy(skills::DegradationPolicy{})
        .self_model(Duration::ms(100));
    auto vehicle = builder.build(simulator);
    ASSERT_TRUE(vehicle->has_degradation_policy());

    // A synthetic sensor_failed alarm through the monitor stream maps onto
    // the radar capability via the registry's alarm bindings.
    monitor::Anomaly anomaly;
    anomaly.at = simulator.now();
    anomaly.domain = monitor::Domain::Sensor;
    anomaly.severity = monitor::Severity::Critical;
    anomaly.source = skills::acc::kRadar;
    anomaly.kind = "sensor_failed";
    vehicle->monitors().anomalies().emit(anomaly);
    EXPECT_DOUBLE_EQ(vehicle->abilities().level(skills::acc::kRadar), 0.0);
    EXPECT_EQ(vehicle->degradation_policy().history().size(), 1u);

    // The self-model snapshot carries the degraded root ability.
    simulator.run_until(Time(Duration::ms(250).count_ns()));
    const auto& snap = vehicle->self_model().latest();
    ASSERT_TRUE(snap.root_ability.has_value());
    EXPECT_EQ(snap.root_skill, skills::acc::kAccDriving);
    EXPECT_LT(*snap.root_ability, 1.0);
}

// --- managed platoon maneuvers -----------------------------------------------------

TEST(Scenario, ManeuverEngineSplitsOnDegradedFollowSkill) {
    scenario::ScenarioBuilder builder(11);
    for (const char* name : {"lead", "mid", "tail"}) {
        builder.vehicle(name).skill_graph("platoon_follow");
        builder.trust(name, 12).platoon_candidate({name, 0.9, 24.0, 10.0, false});
    }
    platoon::ManeuverPolicy policy;
    policy.check_period = Duration::ms(100);
    policy.leave_below = 0.5;
    policy.split_below = 0.15;
    builder.platoon_maneuvers(policy);
    builder.at(Duration::ms(50), [](scenario::Scenario& s) {
        (void)s.form_managed_platoon();
    });
    // mid's V2V and radar both die: follow skill collapses -> split.
    builder.at(Duration::ms(150), [](scenario::Scenario& s) {
        auto& abilities = s.vehicle("mid").abilities();
        abilities.set_source_level(skills::caps::kV2vLink, 0.0);
        abilities.set_source_level(skills::acc::kRadar, 0.0);
        abilities.propagate();
    });
    auto scenario = builder.build();
    scenario->run(Duration::ms(500));

    ASSERT_TRUE(scenario->has_platoon());
    auto& platoon = scenario->platoon();
    // Split at "mid": head platoon dissolved (only "lead" left), mid+tail
    // detached.
    ASSERT_EQ(scenario->detached_members().size(), 2u);
    EXPECT_EQ(scenario->detached_members()[0].id, "mid");
    EXPECT_EQ(scenario->detached_members()[1].id, "tail");
    bool saw_split = false;
    for (const auto& record : platoon.history()) {
        if (record.kind == platoon::ManeuverKind::Split) {
            saw_split = true;
            EXPECT_EQ(record.subject, "mid");
        }
    }
    EXPECT_TRUE(saw_split);
}

TEST(Scenario, ManeuverEngineLeavesOnModeratelyDegradedFollowSkill) {
    scenario::ScenarioBuilder builder(11);
    for (const char* name : {"lead", "mid", "tail"}) {
        builder.vehicle(name).skill_graph("platoon_follow");
        builder.trust(name, 12).platoon_candidate({name, 0.9, 24.0, 10.0, false});
    }
    platoon::ManeuverPolicy policy;
    policy.check_period = Duration::ms(100);
    builder.platoon_maneuvers(policy);
    builder.at(Duration::ms(50), [](scenario::Scenario& s) {
        (void)s.form_managed_platoon();
    });
    // tail's V2V link dims to 0.4: command reception caps the follow skill
    // at 0.4 — between split_below and leave_below -> leave, no split.
    builder.at(Duration::ms(150), [](scenario::Scenario& s) {
        auto& abilities = s.vehicle("tail").abilities();
        abilities.set_source_level(skills::caps::kV2vLink, 0.4);
        abilities.propagate();
    });
    auto scenario = builder.build();
    scenario->run(Duration::ms(500));

    auto& platoon = scenario->platoon();
    EXPECT_TRUE(platoon.formed());
    EXPECT_EQ(platoon.member_names(), (std::vector<std::string>{"lead", "mid"}));
    EXPECT_TRUE(scenario->detached_members().empty());
    bool saw_leave = false;
    for (const auto& record : platoon.history()) {
        saw_leave |= record.kind == platoon::ManeuverKind::Leave;
        EXPECT_NE(record.kind, platoon::ManeuverKind::Split);
    }
    EXPECT_TRUE(saw_leave);
}

TEST(Scenario, ManeuverEngineJoinsDegradedCandidate) {
    scenario::ScenarioBuilder builder(11);
    for (const char* name : {"lead", "mid", "straggler"}) {
        builder.vehicle(name).skill_graph("platoon_follow");
        builder.trust(name, 12).platoon_candidate({name, 0.9, 24.0, 10.0, false});
    }
    platoon::ManeuverPolicy policy;
    policy.check_period = Duration::ms(100);
    policy.join_below = 0.85; // degraded candidates seek the platoon's cover
    builder.platoon_maneuvers(policy);
    // Form from the two healthy vehicles only.
    builder.at(Duration::ms(50), [](scenario::Scenario& s) {
        (void)s.platoon().form({{"lead", 0.9, 24.0, 10.0, false},
                                {"mid", 0.9, 24.0, 10.0, false}},
                               s.rng());
    });
    // The straggler's own follow skill degrades below join_below.
    builder.at(Duration::ms(150), [](scenario::Scenario& s) {
        auto& abilities = s.vehicle("straggler").abilities();
        abilities.set_source_level(skills::acc::kRadar, 0.4);
        abilities.propagate();
    });
    auto scenario = builder.build();
    scenario->run(Duration::ms(500));

    auto& platoon = scenario->platoon();
    ASSERT_TRUE(platoon.formed());
    EXPECT_EQ(platoon.member_names(),
              (std::vector<std::string>{"lead", "mid", "straggler"}));
    const bool joined =
        std::any_of(platoon.history().begin(), platoon.history().end(),
                    [](const platoon::ManeuverRecord& record) {
                        return record.kind == platoon::ManeuverKind::Join &&
                               record.succeeded;
                    });
    EXPECT_TRUE(joined);
}

TEST(Scenario, ManeuverEngineDoesNotOscillateBetweenLeaveAndJoin) {
    // A member whose follow skill sits below leave_below must leave once
    // and stay out — not re-join on the next check just because join_below
    // is higher (the hysteresis band is [leave_below, join_below)).
    scenario::ScenarioBuilder builder(11);
    for (const char* name : {"lead", "mid", "wobbly"}) {
        builder.vehicle(name).skill_graph("platoon_follow");
        builder.trust(name, 12).platoon_candidate({name, 0.9, 24.0, 10.0, false});
    }
    platoon::ManeuverPolicy policy;
    policy.check_period = Duration::ms(100);
    policy.leave_below = 0.5;
    policy.split_below = 0.15;
    policy.join_below = 0.85; // > leave_below: the oscillation trap
    builder.platoon_maneuvers(policy);
    builder.at(Duration::ms(50), [](scenario::Scenario& s) {
        (void)s.form_managed_platoon();
    });
    builder.at(Duration::ms(150), [](scenario::Scenario& s) {
        auto& abilities = s.vehicle("wobbly").abilities();
        // follow ends at 0.45: below leave_below, above split_below.
        abilities.set_source_level(skills::caps::kV2vLink, 0.45);
        abilities.propagate();
    });
    auto scenario = builder.build();
    scenario->run(Duration::sec(1));

    auto& platoon = scenario->platoon();
    EXPECT_EQ(platoon.member_names(), (std::vector<std::string>{"lead", "mid"}));
    int leaves = 0;
    int joins = 0;
    for (const auto& record : platoon.history()) {
        leaves += record.kind == platoon::ManeuverKind::Leave;
        joins += record.kind == platoon::ManeuverKind::Join;
    }
    EXPECT_EQ(leaves, 1);
    EXPECT_EQ(joins, 0);
}

TEST(Scenario, ManeuverEngineParksOnDissolveAndReArms) {
    // 2-member platoon: one leave dissolves it; the parked engine must not
    // act again until form_managed_platoon() re-arms it.
    scenario::ScenarioBuilder builder(11);
    for (const char* name : {"lead", "tail"}) {
        builder.vehicle(name).skill_graph("platoon_follow");
        builder.trust(name, 12).platoon_candidate({name, 0.9, 24.0, 10.0, false});
    }
    platoon::ManeuverPolicy policy;
    policy.check_period = Duration::ms(100);
    builder.platoon_maneuvers(policy);
    builder.at(Duration::ms(50), [](scenario::Scenario& s) {
        (void)s.form_managed_platoon();
    });
    builder.at(Duration::ms(150), [](scenario::Scenario& s) {
        auto& abilities = s.vehicle("tail").abilities();
        abilities.set_source_level(skills::caps::kV2vLink, 0.4);
        abilities.propagate();
    });
    auto scenario = builder.build();
    scenario->run(Duration::sec(1));
    EXPECT_FALSE(scenario->platoon().formed());
    const auto history_size = scenario->platoon().history().size();

    // Recovery: the wobbly member heals, a re-form re-arms the engine, and
    // a fresh degradation triggers a fresh leave.
    scenario->vehicle("tail").abilities().set_source_level(skills::caps::kV2vLink,
                                                           1.0);
    scenario->vehicle("tail").abilities().propagate();
    (void)scenario->form_managed_platoon();
    EXPECT_TRUE(scenario->platoon().formed());
    scenario->vehicle("tail").abilities().set_source_level(skills::caps::kV2vLink,
                                                           0.4);
    scenario->vehicle("tail").abilities().propagate();
    scenario->run_for(Duration::ms(300));
    EXPECT_FALSE(scenario->platoon().formed()); // left again -> dissolved again
    EXPECT_GT(scenario->platoon().history().size(), history_size);
}

TEST(Scenario, PlatoonAccessorRequiresManeuversDeclaration) {
    scenario::ScenarioBuilder builder(1);
    (void)builder.vehicle("ego").ecu(
        {"ecu", 1.0, 0.75, model::Asil::D, "zone", "part"});
    auto scenario = builder.build();
    EXPECT_FALSE(scenario->has_platoon());
    EXPECT_THROW((void)scenario->platoon(), ContractViolation);
    EXPECT_THROW((void)scenario->maneuver_policy(), ContractViolation);
}

// --- report() after stop() / after a throwing window -------------------------------

TEST(Scenario, ReportAfterStopReflectsPartialProgress) {
    scenario::ScenarioBuilder builder(23);
    builder.vehicle("ego")
        .ecu({"ecu0", 1.0, 0.75, model::Asil::D, "cabin", "main"})
        .contracts(kMiniContracts);
    builder.at(Duration::ms(300), [](scenario::Scenario& s) { s.stop(); });
    auto scenario = builder.build();
    scenario->run(Duration::sec(2));

    const auto report = scenario->report();
    EXPECT_GE(report.at.ns(), Duration::ms(300).count_ns());
    EXPECT_LT(report.at.ns(), Duration::sec(2).count_ns());
    ASSERT_EQ(report.vehicles.size(), 1u);
    EXPECT_GT(report.vehicle("ego").jobs_completed, 0u);
}

TEST(Scenario, StopFromAnEventHaltsAtTheSameJobAtEveryDomainCount) {
    // One 10 ms task and a stop() from an event at 300 ms: the event's own
    // domain halts right after it at every domain count, instead of
    // draining to the next barrier (with nothing coupling the domains, the
    // end of the run) — on one thread and on a thread per domain alike.
    std::uint64_t jobs_at_one_domain = 0;
    for (std::size_t domains : {1u, 2u, 4u}) {
        for (std::size_t budget : {1u, 4u}) {
            const testutil::ScopedThreadBudget threads(budget);
            scenario::ScenarioBuilder builder(23);
            builder.domains(domains);
            builder.vehicle("ego")
                .ecu({"ecu0", 1.0, 0.75, model::Asil::D, "cabin", "main"})
                .contracts(R"(
                    component ctrl {
                      asil D;
                      security_level 2;
                      task control { wcet 500us; period 10ms; deadline 8ms; }
                    }
                )");
            auto scenario = builder.build();
            scenario::Scenario& s = *scenario;
            (void)s.vehicle("ego").simulator().schedule_at(
                Time(Duration::ms(300).count_ns()), [&s] { s.stop(); });
            s.run(Duration::sec(2));

            const auto report = s.report();
            const std::uint64_t jobs = report.vehicle("ego").jobs_completed;
            if (domains == 1) {
                EXPECT_EQ(report.at, Time(Duration::ms(300).count_ns()));
                jobs_at_one_domain = jobs;
            }
            EXPECT_EQ(jobs, jobs_at_one_domain) << "domains=" << domains << " budget=" << budget;
        }
    }
    EXPECT_EQ(jobs_at_one_domain, 30u); // releases at 0, 10, ..., 290 ms
}

TEST(Scenario, ReportAfterThrowingScriptReturnsPartialReport) {
    // Regression: a window exception used to leave report().at at the time
    // of the last COMPLETED window (zero if the first window threw), hiding
    // how far the run actually got. It must now reflect the furthest clock.
    scenario::ScenarioBuilder builder(23);
    builder.vehicle("ego")
        .ecu({"ecu0", 1.0, 0.75, model::Asil::D, "cabin", "main"})
        .contracts(kMiniContracts);
    builder.at(Duration::ms(300), [](scenario::Scenario&) {
        throw std::runtime_error("scripted fault");
    });
    auto scenario = builder.build();
    EXPECT_THROW(scenario->run(Duration::sec(2)), std::runtime_error);

    const auto report = scenario->report();
    EXPECT_GE(report.at.ns(), Duration::ms(300).count_ns());
    ASSERT_EQ(report.vehicles.size(), 1u);
    EXPECT_GT(report.vehicle("ego").jobs_completed, 0u);
}

TEST(Scenario, ReportAfterThrowingWindowUnderShardedKernel) {
    // Same regression one layer down: with a multi-domain kernel the throw
    // happens inside a worker window; report() must read the furthest
    // domain clock (ShardedKernel::progress()), not the pre-window now().
    scenario::ScenarioBuilder builder(23);
    builder.domains(2);
    for (const char* name : {"lead", "follow"}) {
        builder.vehicle(name)
            .ecu({"ecu0", 1.0, 0.75, model::Asil::D, "cabin", "main"})
            .contracts(kMiniContracts);
    }
    builder.at(Duration::ms(300), [](scenario::Scenario&) {
        throw std::runtime_error("scripted fault");
    });
    auto scenario = builder.build();
    EXPECT_THROW(scenario->run(Duration::sec(2)), std::runtime_error);

    const auto report = scenario->report();
    EXPECT_GE(report.at.ns(), Duration::ms(300).count_ns());
    ASSERT_EQ(report.vehicles.size(), 2u);
    EXPECT_GT(report.vehicle("lead").jobs_completed, 0u);
}

TEST(ScenarioBuilder, ManeuverPolicyValidated) {
    scenario::ScenarioBuilder builder(1);
    platoon::ManeuverPolicy inverted;
    inverted.leave_below = 0.1;
    inverted.split_below = 0.5;
    EXPECT_THROW(builder.platoon_maneuvers(inverted), ContractViolation);
    platoon::ManeuverPolicy no_skill;
    no_skill.follow_skill = "";
    EXPECT_THROW(builder.platoon_maneuvers(no_skill), ContractViolation);
}

} // namespace
