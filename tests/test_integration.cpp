// End-to-end integration tests across all modules:
//  1. the Fig. 1 loop — contracts -> MCC -> RTE -> monitors -> metrics back
//     into the model domain,
//  2. the §V rear-brake intrusion scenario through the full layer stack,
//  3. the §V thermal scenario (ambient stress -> DVFS with model
//     revalidation -> function-level degradation),
//  4. single-layer vs. cross-layer ablation on the same intrusion.
//
// All vehicles are produced by make_test_vehicle() on the sa::scenario
// builder — the same composition root the examples and benches use — so the
// integration suite exercises the sanctioned assembly path itself.

#include <gtest/gtest.h>

#include "monitor/budget_monitor.hpp"
#include "scenario/scenario_builder.hpp"

namespace {

using namespace sa;
using sim::Duration;
using sim::Time;

// Contract corpus for a small but complete vehicle system, written in the
// contracting language itself (exercising the parser in integration).
const char* kSystemContracts = R"(
    component brake_ctrl {
      asil D;
      security_level 2;
      task control { wcet 400us; bcet 200us; period 10ms; deadline 8ms; }
      provides service brake_cmd { max_rate 300/s; min_client_level 1; }
      redundant_with brake_ctrl_b;
      pin ecu chassis_a;
    }
    component brake_ctrl_b {
      asil D;
      security_level 2;
      task control { wcet 400us; bcet 200us; period 10ms; deadline 8ms; }
      redundant_with brake_ctrl;
      pin ecu chassis_b;
    }
    component acc_app {
      asil C;
      security_level 1;
      task plan { wcet 1ms; bcet 500us; period 20ms; }
      requires service brake_cmd;
      requires service object_list;
    }
    component perception {
      asil C;
      security_level 1;
      task track { wcet 3ms; bcet 1ms; period 40ms; }
      provides service object_list { max_rate 100/s; }
    }
)";

/// The standard single-vehicle integration testbed, composed on the
/// scenario builder. `customize` can add declarations (extra monitors,
/// layer subsets) before the build.
std::unique_ptr<scenario::Scenario>
make_test_vehicle(core::CoordinatorConfig coord_cfg = {},
                  const std::function<void(scenario::VehicleBuilder&)>& customize = {}) {
    scenario::ScenarioBuilder builder(23);
    auto& vehicle =
        builder.vehicle("ego")
            .ecu({"chassis_a", 1.0, 0.75, model::Asil::D, "engine_bay", "main"})
            .ecu({"chassis_b", 1.0, 0.75, model::Asil::D, "cabin", "main"})
            .contracts(kSystemContracts)
            // Traffic on pairs the contracts never declared is suspicious
            // above a generic bound ("monitoring communication behavior", §V).
            .rate_ids(Duration::ms(100), /*default_bound=*/400.0)
            .skill_graph("acc")
            .full_layer_stack()
            .coordinator(coord_cfg)
            // Map component losses onto ability inputs: rear brake
            // containment degrades the brake_system sink.
            .ability_update_hook([](scenario::Vehicle& v, const core::Problem& problem) {
                if (problem.anomaly.kind == "component_contained" &&
                    problem.anomaly.source == "brake_ctrl") {
                    v.brakes().set_rear_available(false);
                    v.abilities().set_source_level(skills::acc::kBrakeSystem,
                                                   v.brakes().ability_level());
                    return true;
                }
                if (problem.anomaly.kind == "platform_performance_reduced") {
                    v.abilities().set_intrinsic_level(skills::acc::kPerceiveTrack, 0.6);
                    return true;
                }
                return false;
            })
            // Degradation tactic (§V compensation).
            .tactic("reduce_speed_and_drivetrain_brake", skills::acc::kDecelerate, 0.2,
                    0.85, 2, [](scenario::Vehicle& v) {
                        v.acc().set_speed_limit(15.0);
                        v.brakes().set_drivetrain_assist(true);
                        v.abilities().set_source_level(skills::acc::kBrakeSystem,
                                                       v.brakes().ability_level());
                    });
    if (customize) {
        customize(vehicle);
    }
    return builder.build();
}

void storm_attack(scenario::Vehicle& ego) {
    ego.rte().access().grant("brake_ctrl", "object_list");
    ego.faults().compromise_with_message_storm("brake_ctrl", "object_list",
                                               Duration::ms(2));
}

void remove_redundant_channel(scenario::Vehicle& ego) {
    model::ChangeRequest remove;
    remove.kind = model::ChangeRequest::Kind::Remove;
    remove.component = "brake_ctrl_b";
    ASSERT_TRUE(ego.mcc().integrate(remove).accepted);
    ego.rte().remove_component("brake_ctrl_b");
}

// --- Fig. 1 loop ---------------------------------------------------------------------

TEST(Fig1Loop, MetricsFlowBackIntoModelDomain) {
    auto bed = make_test_vehicle();
    auto& ego = bed->only_vehicle();
    // Budget monitors feed observed execution times to the MCC.
    auto& budget_a =
        ego.monitors().add<monitor::BudgetMonitor>(ego.rte().ecu("chassis_a").scheduler());
    auto& budget_b =
        ego.monitors().add<monitor::BudgetMonitor>(ego.rte().ecu("chassis_b").scheduler());
    budget_a.set_mode(monitor::BudgetMode::Observe);
    budget_b.set_mode(monitor::BudgetMode::Observe);

    for (auto* sched : {&ego.rte().ecu("chassis_a").scheduler(),
                        &ego.rte().ecu("chassis_b").scheduler()}) {
        sched->job_completed().subscribe([&ego](const rte::JobRecord& job) {
            ego.mcc().ingest_observed_wcet(job.task_name, job.executed);
        });
    }

    bed->run(Duration::sec(2));

    // Every contracted task produced observations within its modelled WCET.
    EXPECT_GT(ego.mcc().observed_wcet("brake_ctrl.control"), Duration::zero());
    EXPECT_LE(ego.mcc().observed_wcet("brake_ctrl.control"), Duration::us(400));
    EXPECT_GT(ego.mcc().observed_wcet("perception.track"), Duration::zero());
    EXPECT_TRUE(ego.mcc().wcet_violations().empty());
    EXPECT_EQ(ego.rte().total_deadline_misses(), 0u);
}

TEST(Fig1Loop, UpdateAcceptedThenDeployed) {
    auto bed = make_test_vehicle();
    auto& ego = bed->only_vehicle();
    const auto report = ego.integrate("add lane keeping", R"(
        component lane_keep {
          asil C;
          security_level 1;
          task steer { wcet 800us; period 20ms; }
          requires service object_list;
        }
    )");
    ASSERT_TRUE(report.accepted) << report.rejection_reason;
    EXPECT_TRUE(ego.rte().has_component("lane_keep"));
    EXPECT_EQ(ego.rte().component("lane_keep").state(), rte::ComponentState::Running);
    bed->run(Duration::ms(500));
    EXPECT_EQ(ego.rte().total_deadline_misses(), 0u);
}

TEST(Fig1Loop, HarmfulUpdateRejectedSystemUntouched) {
    auto bed = make_test_vehicle();
    auto& ego = bed->only_vehicle();
    const auto report = ego.integrate("malicious: flood the brake service", R"(
        component infotainment {
          asil QM;
          security_level 0;
          task spam { wcet 500us; period 10ms; }
          requires service brake_cmd;
        }
    )");
    EXPECT_FALSE(report.accepted);
    // Security viewpoint: level 0 < min_client_level 1 on brake_cmd.
    const auto* security = report.viewpoint("security");
    ASSERT_NE(security, nullptr);
    EXPECT_FALSE(security->passed());
    EXPECT_FALSE(ego.rte().has_component("infotainment"));
    EXPECT_EQ(ego.mcc().functions().size(), 4u);
}

// --- §V rear-brake intrusion, full stack ------------------------------------------------

TEST(IntrusionScenario, CrossLayerContainsCompensatesAndKeepsDriving) {
    auto bed = make_test_vehicle();
    auto& ego = bed->only_vehicle();

    bed->run(Duration::ms(300));
    ASSERT_EQ(ego.coordinator().problems_handled(), 0u);

    // Attack: the compromised brake_ctrl storms the object_list service it
    // has no business calling at rate (§V's rear-braking security flaw).
    storm_attack(ego);
    bed->run(Duration::sec(2));

    // The IDS flagged it; the network layer contained it; the follow-up went
    // through safety (redundancy exists) — and driving continues.
    EXPECT_GT(ego.coordinator().problems_handled(), 0u);
    EXPECT_EQ(ego.rte().component("brake_ctrl").state(), rte::ComponentState::Contained);

    bool contained_decision = false;
    bool safety_or_ability_followup = false;
    for (const auto& d : ego.coordinator().decisions()) {
        if (d.executed.has_value() && d.executed->action == "contain_component") {
            contained_decision = true;
        }
        if (d.anomaly.kind == "component_contained" && d.resolved) {
            safety_or_ability_followup = true;
            EXPECT_EQ(d.executed->action, "activate_redundancy");
        }
    }
    EXPECT_TRUE(contained_decision);
    EXPECT_TRUE(safety_or_ability_followup);
    // Redundant channel keeps the function: no safe stop.
    EXPECT_EQ(ego.objective_layer().objective(), core::DrivingObjective::Drive);
}

TEST(IntrusionScenario, WithoutRedundancyAbilityLayerCompensates) {
    auto bed = make_test_vehicle();
    auto& ego = bed->only_vehicle();
    // Remove the redundant channel first (maintenance scenario).
    remove_redundant_channel(ego);

    storm_attack(ego);
    bed->run(Duration::sec(2));

    EXPECT_EQ(ego.rte().component("brake_ctrl").state(), rte::ComponentState::Contained);
    // §V: "reducing the maximum speed and generating additional brake torque
    // from the drive train in order to stay in safe margins".
    EXPECT_TRUE(ego.acc().speed_limit().has_value());
    EXPECT_TRUE(ego.brakes().drivetrain_assist());
    EXPECT_FALSE(ego.brakes().rear_available());
    // Driving continues in degraded mode — no safe stop.
    EXPECT_EQ(ego.objective_layer().objective(), core::DrivingObjective::Drive);
    bool ability_tactic = false;
    for (const auto& d : ego.coordinator().decisions()) {
        if (d.executed.has_value() &&
            d.executed->action == "tactic:reduce_speed_and_drivetrain_brake") {
            ability_tactic = true;
            EXPECT_EQ(d.executed->layer, core::LayerId::Ability);
        }
    }
    EXPECT_TRUE(ability_tactic);
}

TEST(IntrusionScenario, SingleLayerAblationLeavesFunctionLoss) {
    core::CoordinatorConfig cfg;
    cfg.cross_layer_enabled = false;
    auto bed = make_test_vehicle(cfg);
    auto& ego = bed->only_vehicle();
    remove_redundant_channel(ego);

    storm_attack(ego);
    bed->run(Duration::sec(2));

    // The network layer still contains the attack locally...
    EXPECT_EQ(ego.rte().component("brake_ctrl").state(), rte::ComponentState::Contained);
    // ...but nothing above reacts: no compensation happens and the vehicle
    // would keep driving at full speed with degraded brakes.
    EXPECT_FALSE(ego.acc().speed_limit().has_value());
    EXPECT_FALSE(ego.brakes().drivetrain_assist());
}


TEST(IntrusionScenario, FullEscalationEndsInSafeStop) {
    // No redundancy AND no degradation tactics: the safety layer has nothing
    // adequate, the ability layer plans nothing, so the escalation chain must
    // terminate at the objective layer with a safe stop (the §V option to
    // "transition the system into a safe state, i.e. stop driving").
    auto bed = make_test_vehicle();
    auto& ego = bed->only_vehicle();
    remove_redundant_channel(ego);
    ego.tactics() = skills::DegradationManager{}; // drop all tactics

    storm_attack(ego);
    bed->run(Duration::sec(2));

    EXPECT_EQ(ego.rte().component("brake_ctrl").state(), rte::ComponentState::Contained);
    EXPECT_EQ(ego.objective_layer().objective(), core::DrivingObjective::SafeStop);
    bool safe_stop_decision = false;
    for (const auto& d : ego.coordinator().decisions()) {
        if (d.executed.has_value() && d.executed->action == "safe_stop") {
            safe_stop_decision = true;
            EXPECT_EQ(d.executed->layer, core::LayerId::Objective);
            EXPECT_GE(d.escalations, 1);
        }
    }
    EXPECT_TRUE(safe_stop_decision);
}

// --- §V thermal scenario ------------------------------------------------------------------

TEST(ThermalScenario, DvfsGuardedByTimingModel) {
    // Thermal monitor declared on the builder: range violation above 85 C on
    // chassis_a, fed from the ECU's thermal model.
    auto bed = make_test_vehicle({}, [](scenario::VehicleBuilder& vehicle) {
        vehicle.thermal_guard("chassis_a", -40.0, 85.0, monitor::Severity::Critical);
    });
    auto& ego = bed->only_vehicle();

    // Heat wave.
    ego.faults().set_ambient_temperature("chassis_a", 95.0);
    bed->run(Duration::sec(120));

    // The platform layer throttled the ECU (timing model said it is safe).
    EXPECT_GT(ego.rte().ecu("chassis_a").dvfs_level(), 0);
    bool dvfs_decision = false;
    for (const auto& d : ego.coordinator().decisions()) {
        if (d.executed.has_value() && d.executed->action == "dvfs_down") {
            dvfs_decision = true;
            EXPECT_EQ(d.executed->layer, core::LayerId::Platform);
        }
    }
    EXPECT_TRUE(dvfs_decision);
    // And the configuration stayed schedulable at the new speed.
    EXPECT_EQ(ego.rte().total_deadline_misses(), 0u);
}

// --- Self model over a disturbance ----------------------------------------------------------

TEST(SelfModelIntegration, HealthDipsOnAttackAndDecisionIsAudited) {
    auto bed = make_test_vehicle({}, [](scenario::VehicleBuilder& vehicle) {
        vehicle.self_model(Duration::ms(200));
    });
    auto& ego = bed->only_vehicle();
    bed->run(Duration::sec(1));
    const double healthy = ego.self_model().latest().overall;
    EXPECT_GT(healthy, 0.9);

    storm_attack(ego);
    bed->run(Duration::sec(3));

    EXPECT_LT(ego.self_model().latest().overall, healthy);
    // Decision records carry the full audit trail.
    ASSERT_FALSE(ego.coordinator().decisions().empty());
    const auto& d = ego.coordinator().decisions().front();
    EXPECT_FALSE(d.considered.empty());
    EXPECT_FALSE(d.rationale.empty());
}

} // namespace
