// Tests for the sa::scenario composition root: vehicle/scenario builders,
// the canonical assembly order's observable contracts, multi-bus gateway
// routing, multi-vehicle scenarios with per-vehicle coordinators, the
// cooperation substrate (trust/platoon/V2V) and scripted events.

#include <gtest/gtest.h>

#include <functional>
#include <latch>
#include <sstream>
#include <thread>

#include "scenario/presets.hpp"
#include "scenario/scenario_builder.hpp"
#include "thread_budget.hpp"
#include "util/alloc_hook.hpp"

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
    EXPECT_GT(vehicle->self_model().latest().version, 1u);
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
    can::CanBus bus(simulator);
    can::BusGateway gateway;
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
    builder.trust("good_a", 10)
        .trust("good_b", 10)
        .trust("liar", 0, 10)
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
    builder.v2v({.latency = Duration::ms(10)});
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
    EXPECT_THROW(builder.skill_graph(std::make_shared<const skills::SkillGraphSpec>(spec)),
                 ContractViolation);
}

TEST(VehicleBuilder, SensorBoundToSkillNodeRejectedAtBuild) {
    // A sensor's quality feeds a data source or sink; a skill's level is
    // propagated. build() rejects a skill binding instead of letting the
    // first quality update throw during run().
    auto declare = [](scenario::VehicleBuilder& builder, const char* node) {
        vehicle::ScenarioConfig cfg;
        monitor::SensorQualityConfig quality;
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
    monitor::SensorQualityConfig quality;
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
}

// --- one initial analysis per declared configuration -------------------------------

/// Everything an initial analysis exposes, as text: the report's steps,
/// viewpoint issues, lint findings and mapping; the MCC's committed
/// functions, mapping, dependency graph size, FMEA, security policy, RTE
/// configuration, observed WCETs and integration counters.
std::string analysis_text(const model::Mcc& mcc, const model::IntegrationReport& report) {
    std::ostringstream out;
    const auto mapping = [&out](const model::Mapping& m) {
        for (const auto& [component, ecu] : m.component_to_ecu) {
            out << " place " << component << '@' << ecu;
        }
        for (const auto& [task, priority] : m.task_priority) {
            out << " prio " << task << '=' << priority;
        }
        for (const auto& [message, bus] : m.message_to_bus) {
            out << " bus " << message << '@' << bus;
        }
        for (const auto& [message, id] : m.message_id) {
            out << " id " << message << '=' << id;
        }
        out << '\n';
    };
    out << "accepted " << report.accepted << ": " << report.rejection_reason << '\n';
    for (const auto& step : report.steps) {
        out << "step " << step.name << ' ' << step.passed << ' ' << step.detail << '\n';
    }
    for (const auto& viewpoint : report.viewpoints) {
        for (const auto& issue : viewpoint.issues) {
            out << "issue " << viewpoint.viewpoint << ' ' << static_cast<int>(issue.severity)
                << ' ' << issue.code << ' ' << issue.subject << ' ' << issue.detail << '\n';
        }
    }
    out << "lint " << report.lint.str() << "\nreport mapping";
    mapping(report.mapping);

    for (const auto& c : mcc.functions().contracts()) {
        out << "component " << c.component << ' ' << model::to_string(c.asil) << ' '
            << c.security_level;
        for (const auto& t : c.tasks) {
            out << " task " << t.name << ' ' << t.wcet.count_ns() << ' ' << t.bcet.count_ns()
                << ' ' << t.period.count_ns() << ' ' << t.deadline.count_ns();
        }
        for (const auto& m : c.messages) {
            out << " message " << m.name << ' ' << m.payload_bytes << ' '
                << m.period.count_ns() << ' ' << m.bus;
        }
        out << '\n';
    }
    out << "mcc mapping";
    mapping(mcc.mapping());
    out << "graph " << mcc.dependency_graph().node_count() << ' '
        << mcc.dependency_graph().edge_count() << '\n';
    for (const auto& entry : mcc.fmea().entries) {
        out << "fmea " << static_cast<int>(entry.failed.kind) << ' ' << entry.failed.name
            << ' ' << static_cast<int>(entry.mode) << ' ' << entry.affected.size() << ' ' << entry.lost_components.size() << ' '
            << model::to_string(entry.worst_asil) << ' ' << entry.mitigations.size() << ' '
            << entry.fail_operational << '\n';
    }
    for (const auto& [client, service] : mcc.security_policy().grants) {
        out << "grant " << client << ' ' << service << '\n';
    }
    for (const auto& bound : mcc.security_policy().rate_bounds) {
        out << "rate " << bound.client << ' ' << bound.service << ' ' << bound.max_rate_hz
            << '\n';
    }
    const rte::RteConfig config = mcc.make_rte_config();
    for (const auto& component : config.components) {
        out << "rte " << component.name << '@' << component.ecu << ' '
            << component.safety_level;
        for (const auto& t : component.tasks) {
            out << " task " << t.name << ' ' << t.priority << ' ' << t.wcet.count_ns() << ' '
                << t.period.count_ns() << ' ' << t.deadline.count_ns();
        }
        out << '\n';
    }
    for (const auto& [client, service] : config.grants) {
        out << "rte grant " << client << ' ' << service << '\n';
    }
    for (const auto& c : mcc.functions().contracts()) {
        for (const auto& t : c.tasks) {
            const std::string qualified = c.component + "." + t.name;
            out << "observed " << qualified << ' '
                << mcc.observed_wcet(qualified).count_ns() << '\n';
        }
    }
    out << "integrations " << mcc.integrations_attempted() << ' '
        << mcc.integrations_accepted() << '\n';
    return out.str();
}

/// The analysis a vehicle gets when its declaration is integrated from
/// scratch, outside the builder: a fresh Mcc on the declared platform.
std::string fresh_analysis_text(const scenario::VehicleBuilder& declared) {
    model::Mcc mcc(declared.platform_model());
    const model::IntegrationReport report = mcc.integrate(declared.change_request());
    return analysis_text(mcc, report);
}

std::string vehicle_analysis_text(scenario::Vehicle& vehicle) {
    return analysis_text(vehicle.mcc(), vehicle.integration_report());
}

TEST(SharedAnalysis, EveryVehicleReadsExactlyItsOwnIntegration) {
    // Preset platoon vehicles and one-ECU kMiniContracts vehicles: from the
    // second vehicle of each shape on, the builder copies one memoised
    // analysis; every field of it must equal an integration run here.
    scenario::ScenarioBuilder builder(3);
    const std::vector<std::string> platoon{"p0", "p1", "p2", "p3"};
    const std::vector<std::string> mini{"m0", "m1", "m2"};
    for (const auto& name : platoon) {
        scenario::presets::declare_platoon_follow_vehicle(builder, name);
    }
    for (const auto& name : mini) {
        builder.vehicle(name)
            .ecu({"ecu0", 1.0, 0.75, model::Asil::D, "cabin", "main"})
            .contracts(kMiniContracts);
    }
    auto scenario = builder.build();
    for (const auto* names : {&platoon, &mini}) {
        const std::string expected = fresh_analysis_text(builder.vehicle(names->front()));
        EXPECT_NE(expected.find("accepted 1"), std::string::npos) << expected;
        EXPECT_NE(expected.find("integrations 1 1"), std::string::npos) << expected;
        for (const auto& name : *names) {
            EXPECT_EQ(vehicle_analysis_text(scenario->vehicle(name)), expected) << name;
        }
    }
}

/// Build `a`, `b` and then `c` (declared like `a`) as one ReportOnly
/// scenario; each must read the analysis of its own declaration, and `b`'s
/// must differ from `a`'s.
std::unique_ptr<scenario::Scenario> expect_distinct_outcomes(
    const std::function<void(scenario::VehicleBuilder&, bool variant)>& declare) {
    scenario::ScenarioBuilder builder(5);
    for (const char* name : {"a", "b", "c"}) {
        declare(builder.vehicle(name), std::string_view(name) == "b");
        builder.vehicle(name).integration_policy(scenario::IntegrationPolicy::ReportOnly);
    }
    auto scenario = builder.build();
    const std::string a = vehicle_analysis_text(scenario->vehicle("a"));
    const std::string b = vehicle_analysis_text(scenario->vehicle("b"));
    EXPECT_EQ(a, fresh_analysis_text(builder.vehicle("a")));
    EXPECT_EQ(b, fresh_analysis_text(builder.vehicle("b")));
    EXPECT_NE(a, b);
    EXPECT_EQ(vehicle_analysis_text(scenario->vehicle("c")), a);
    return scenario;
}

TEST(SharedAnalysis, EcuCapIsPartOfTheKey) {
    // Same text; b's ECU admits 5% utilization, so its 10% contract set is
    // rejected and nothing is deployed. The mapper enforces max_utilization
    // before the timing viewpoint would check the same cap.
    auto scenario = expect_distinct_outcomes([](scenario::VehicleBuilder& v, bool variant) {
        v.ecu({"ecu0", 1.0, variant ? 0.05 : 0.75, model::Asil::D, "cabin", "main"})
            .contracts(kMiniContracts);
    });
    const auto& report = scenario->vehicle("b").integration_report();
    EXPECT_FALSE(report.accepted);
    EXPECT_EQ(report.rejection_reason.rfind("mapping infeasible", 0), 0u)
        << report.rejection_reason;
    EXPECT_TRUE(scenario->vehicle("b").rte().component_names().empty());
    EXPECT_TRUE(scenario->vehicle("c").integration_report().accepted);
}

TEST(SharedAnalysis, BusBitrateIsPartOfTheKey) {
    // Same text; on b's 20 kbit/s bus an 8-byte frame every 2 ms no longer
    // fits, so the timing viewpoint's CAN analysis rejects it.
    auto scenario = expect_distinct_outcomes([](scenario::VehicleBuilder& v, bool variant) {
        v.ecu({"ecu0", 1.0, 0.75, model::Asil::D, "cabin", "main"})
            .can_bus({"can0", variant ? 20'000 : 500'000, 0.6})
            .contracts(R"(
                component sender {
                  task tx { wcet 100us; period 10ms; }
                  message status { payload 8; period 2ms; bus can0; }
                }
            )");
    });
    const auto& report = scenario->vehicle("b").integration_report();
    EXPECT_FALSE(report.accepted);
    const model::ViewpointReport* timing = report.viewpoint("timing");
    ASSERT_NE(timing, nullptr);
    EXPECT_FALSE(timing->passed());
    EXPECT_TRUE(scenario->vehicle("c").integration_report().accepted);
}

TEST(SharedAnalysis, ContractTextIsPartOfTheKeyByteForByte) {
    // Texts that differ in one WCET digit: both accepted, each vehicle
    // commits and deploys its own WCET.
    auto scenario = expect_distinct_outcomes([](scenario::VehicleBuilder& v, bool variant) {
        v.ecu({"ecu0", 1.0, 0.75, model::Asil::D, "cabin", "main"})
            .contracts(variant ? "component solo { task run { wcet 501us; period 10ms; } }"
                               : "component solo { task run { wcet 500us; period 10ms; } }");
    });
    EXPECT_EQ(scenario->vehicle("b").mcc().functions().contracts()[0].tasks[0].wcet,
              Duration::us(501));
    EXPECT_EQ(scenario->vehicle("c").mcc().functions().contracts()[0].tasks[0].wcet,
              Duration::us(500));
}

TEST(SharedAnalysis, InFieldChangesStayWithTheirVehicle) {
    const auto declare = [](scenario::ScenarioBuilder& builder, const char* name) {
        builder.vehicle(name)
            .ecu({"ecu0", 1.0, 0.75, model::Asil::D, "cabin", "main"})
            .contracts(kMiniContracts)
            .skill_graph("acc");
    };
    scenario::ScenarioBuilder builder(7);
    declare(builder, "a");
    declare(builder, "b");
    auto scenario = builder.build();
    scenario::Vehicle& a = scenario->vehicle("a");
    scenario::Vehicle& b = scenario->vehicle("b");
    const std::string b_before = vehicle_analysis_text(b);
    // Identical declarations share the analysed configuration and the report.
    EXPECT_EQ(&a.mcc().functions(), &b.mcc().functions());
    EXPECT_EQ(&a.integration_report(), &b.integration_report());

    const auto update = a.integrate("extra component", R"(
        component logger {
          asil QM;
          task flush { wcet 200us; period 50ms; }
        }
    )");
    ASSERT_TRUE(update.accepted);
    a.mcc().ingest_observed_wcet("ctrl.control", Duration::us(700));
    EXPECT_EQ(a.mcc().functions().size(), 3u);
    EXPECT_EQ(a.mcc().integrations_attempted(), 2u);
    EXPECT_EQ(a.mcc().integrations_accepted(), 2u);
    EXPECT_EQ(a.mcc().observed_wcet("ctrl.control"), Duration::us(700));
    EXPECT_TRUE(a.rte().has_component("logger"));

    EXPECT_EQ(b.mcc().functions().size(), 2u);
    EXPECT_EQ(b.mcc().integrations_attempted(), 1u);
    EXPECT_EQ(b.mcc().integrations_accepted(), 1u);
    EXPECT_EQ(b.mcc().observed_wcet("ctrl.control"), Duration::zero());
    EXPECT_FALSE(b.rte().has_component("logger"));
    EXPECT_EQ(vehicle_analysis_text(b), b_before);
    // a's accepted change gave a a configuration of its own; the build-time
    // report stays the one both vehicles share.
    EXPECT_NE(&a.mcc().functions(), &b.mcc().functions());
    EXPECT_EQ(&a.integration_report(), &b.integration_report());

    // Ability levels: a source level set and propagated on a, and a quality
    // monitor bound to a's graph, move a's levels only; b's graph shares the
    // compiled structure, not the levels.
    skills::AbilityGraph& a_skills = a.abilities();
    a_skills.set_source_level(skills::acc::kRadar, 0.2);
    a_skills.propagate();
    monitor::SensorQualityMonitor camera(a.simulator(), "camera");
    a_skills.bind_source(skills::acc::kCamera, camera);
    camera.quality_updated().emit(0.4);
    EXPECT_DOUBLE_EQ(a_skills.level(skills::acc::kRadar), 0.2);
    EXPECT_DOUBLE_EQ(a_skills.level(skills::acc::kCamera), 0.4);
    EXPECT_DOUBLE_EQ(a_skills.level(skills::acc::kAccDriving), 0.2);
    for (const std::string& node : b.abilities().node_names()) {
        EXPECT_DOUBLE_EQ(b.abilities().level(node), 1.0) << node;
    }
    EXPECT_EQ(vehicle_analysis_text(b), b_before);

    // The memoised analysis itself is untouched: a vehicle built afterwards
    // reads what b read.
    scenario::ScenarioBuilder later(7);
    declare(later, "later");
    auto rebuilt = later.build();
    EXPECT_EQ(vehicle_analysis_text(rebuilt->vehicle("later")), b_before);
}

TEST(SharedAnalysis, RequireAcceptedNamesEveryRejectedVehicle) {
    const char* rejected = R"(
        component greedy_a { asil QM; task burn { wcet 8ms; period 10ms; } }
        component greedy_b { asil QM; task burn { wcet 8ms; period 10ms; } }
    )";
    for (const char* name : {"first", "second", "third"}) {
        sim::Simulator simulator(1);
        scenario::VehicleBuilder builder(name);
        builder.ecu({"tiny", 1.0, 0.75, model::Asil::D, "cabin", "main"})
            .contracts(rejected);
        try {
            (void)builder.build(simulator);
            ADD_FAILURE() << name << " built despite a rejected contract set";
        } catch (const ContractViolation& violation) {
            const std::string what = violation.what();
            EXPECT_NE(what.find("vehicle '" + std::string(name) + "'"), std::string::npos)
                << what;
            EXPECT_NE(what.find("initial integration rejected"), std::string::npos) << what;
        }
    }
}

TEST(SharedAnalysis, ConcurrentBuildsOfOneConfigurationAgree) {
    // Two threads build identical 4-vehicle platoons at once. The appended
    // component makes a contract text no other test (or repetition)
    // declares, so both threads start on a cold memo entry and race on its
    // first analysis.
    static int repetition = 0;
    const std::string extra = "component concurrency_probe" + std::to_string(repetition++) +
                              " { task tick { wcet 50us; period 40ms; } }";
    const auto build = [&extra] {
        scenario::ScenarioBuilder builder(11);
        for (const char* name : {"c0", "c1", "c2", "c3"}) {
            scenario::presets::declare_platoon_follow_vehicle(builder, name);
            builder.vehicle(name).contracts(extra);
        }
        return builder.build();
    };
    std::vector<std::string> results[2];
    std::latch start(2);
    const auto worker = [&](int index) {
        start.arrive_and_wait();
        auto scenario = build();
        for (const char* name : {"c0", "c1", "c2", "c3"}) {
            results[index].push_back(vehicle_analysis_text(scenario->vehicle(name)));
        }
    };
    std::thread other(worker, 1);
    worker(0);
    other.join();
    ASSERT_EQ(results[0].size(), 4u);
    EXPECT_EQ(results[0], results[1]);
    for (const auto& text : results[0]) {
        EXPECT_EQ(text, results[0].front());
    }
    EXPECT_NE(results[0].front().find("component concurrency_probe"), std::string::npos);
}

TEST(SharedAnalysis, SecondIdenticalVehicleSkipsParseAndIntegration) {
    namespace alloc_hook = util::alloc_hook;
    // A contract text no other test (or repetition) declares: the first
    // vehicle's build() misses the memo, the second's copies the first's
    // analysis.
    static int repetition = 0;
    const std::string extra = "component alloc_probe" + std::to_string(repetition++) +
                              " { task tick { wcet 60us; period 40ms; } }";
    scenario::ScenarioBuilder builder(13);
    for (const char* name : {"warm", "first", "second"}) {
        scenario::presets::declare_platoon_follow_vehicle(builder, name);
    }
    builder.vehicle("first").contracts(extra);
    builder.vehicle("second").contracts(extra);

    sim::Simulator warm_simulator(1);
    sim::Simulator first_simulator(1);
    sim::Simulator second_simulator(1);
    // One-time set-up (catalogues, lazily built statics) lands here.
    auto warm = builder.vehicle("warm").build(warm_simulator);

    std::uint64_t first_allocations = 0;
    std::uint64_t second_allocations = 0;
    std::unique_ptr<scenario::Vehicle> first;
    std::unique_ptr<scenario::Vehicle> second;
    {
        const alloc_hook::CountScope scope;
        first = builder.vehicle("first").build(first_simulator);
        first_allocations = scope.allocations();
    }
    {
        const alloc_hook::CountScope scope;
        second = builder.vehicle("second").build(second_simulator);
        second_allocations = scope.allocations();
    }
    // change_request() is one ContractParser::parse of the declared text
    // (its description, "second system", fits the string's inline buffer).
    std::uint64_t parse_allocations = 0;
    {
        const alloc_hook::CountScope scope;
        const model::ChangeRequest change = builder.vehicle("second").change_request();
        parse_allocations = scope.allocations();
        EXPECT_EQ(change.contracts.size(), 3u);
    }
    EXPECT_EQ(vehicle_analysis_text(*first), vehicle_analysis_text(*second));
    ASSERT_GT(parse_allocations, 0u);
    EXPECT_LT(second_allocations, first_allocations);
    EXPECT_GE(first_allocations - second_allocations, parse_allocations)
        << "first " << first_allocations << ", second " << second_allocations
        << ", one parse " << parse_allocations;
}

} // namespace
