// §V worked example, end to end: "we assume a security flaw in the software
// component governing rear braking." The communication IDS detects the
// storm, the network layer contains the component, and the consequence
// propagates through the layer stack:
//   - with a redundant brake channel, the safety layer covers the loss;
//   - without redundancy, the ability layer compensates (reduced maximum
//     speed + drivetrain brake assist);
//   - if even that were impossible, the objective layer would order a safe
//     stop.
// The example runs the first two variants and prints the decision audit.
// Both vehicles are composed on the scenario builder; only the contract set
// (redundant channel or not) differs.
//
// Build & run:  ./build/examples/intrusion_response

#include <cstdio>
#include <string>

#include "scenario/scenario_builder.hpp"

using namespace sa;
using sim::Duration;

namespace {

std::string vehicle_contracts(bool with_redundancy) {
    std::string text = R"(
        component brake_ctrl {
          asil D;
          security_level 2;
          task control { wcet 400us; period 10ms; deadline 8ms; }
          provides service brake_cmd { max_rate 300/s; min_client_level 1; }
          pin ecu chassis_a;
    )";
    if (with_redundancy) {
        text += "  redundant_with brake_ctrl_b;\n";
    }
    text += R"(
        }
        component perception {
          asil C;
          security_level 1;
          task track { wcet 3ms; period 40ms; }
          provides service object_list { max_rate 100/s; }
        }
        component acc_app {
          asil C;
          security_level 1;
          task plan { wcet 1ms; period 20ms; }
          requires service brake_cmd;
          requires service object_list;
        }
    )";
    if (with_redundancy) {
        text += R"(
            component brake_ctrl_b {
              asil D;
              security_level 2;
              task control { wcet 400us; period 10ms; deadline 8ms; }
              redundant_with brake_ctrl;
              pin ecu chassis_b;
            }
        )";
    }
    return text;
}

std::unique_ptr<scenario::Scenario> make_vehicle(bool with_redundancy) {
    // The ability-level consequence of losing the rear brake channel is
    // *data*: one DegradationPolicy rule mapping the containment follow-up
    // onto the brake_system capability (availability = front-only
    // effectiveness). The update hook only flips the physical actuator
    // state; it no longer duplicates the level bookkeeping.
    skills::DegradationPolicy policy;
    skills::AlarmBinding contained;
    contained.anomaly_kind = "component_contained";
    contained.source = "brake_ctrl";
    contained.capability = skills::acc::kBrakeSystem;
    contained.quality = skills::QualityKind::Availability;
    contained.degraded_value = vehicle::BrakeSplit{}.front_fraction;
    policy.on_anomaly(contained);

    scenario::ScenarioBuilder builder(123);
    builder.vehicle("ego")
        .ecu({"chassis_a", 1.0, 0.75, model::Asil::D, "engine_bay", "main"})
        .ecu({"chassis_b", 1.0, 0.75, model::Asil::D, "cabin", "main"})
        .contracts(vehicle_contracts(with_redundancy))
        .rate_ids(Duration::ms(100), /*default_bound=*/400.0)
        .skill_graph("acc")
        .full_layer_stack()
        .degradation_policy(policy)
        .ability_update_hook([](scenario::Vehicle& v, const core::Problem& problem) {
            if (problem.anomaly.kind == "component_contained" &&
                problem.anomaly.source == "brake_ctrl") {
                v.brakes().set_rear_available(false);
            }
            return false; // levels flow through the degradation policy
        })
        .tactic("reduce_speed_and_drivetrain_brake", skills::acc::kDecelerate, 0.2,
                0.85, 2, [](scenario::Vehicle& v) {
                    v.acc().set_speed_limit(15.0);
                    v.brakes().set_drivetrain_assist(true);
                    v.abilities().set_source_level(skills::acc::kBrakeSystem,
                                                   v.brakes().ability_level());
                });
    return builder.build();
}

void attack_and_run(scenario::Scenario& scenario) {
    auto& ego = scenario.only_vehicle();
    ego.rte().access().grant("brake_ctrl", "object_list");
    ego.faults().compromise_with_message_storm("brake_ctrl", "object_list",
                                               Duration::ms(2));
    scenario.run(Duration::sec(3));
}

void print_audit(scenario::Scenario& scenario, const char* label) {
    auto& ego = scenario.only_vehicle();
    std::printf("\n=== %s ===\n", label);
    for (const auto& d : ego.coordinator().decisions()) {
        std::printf("  problem #%llu [%s] %s(%s)\n",
                    static_cast<unsigned long long>(d.problem_id),
                    monitor::to_string(d.anomaly.domain), d.anomaly.kind.c_str(),
                    d.anomaly.source.c_str());
        for (const auto& c : d.considered) {
            std::printf("    considered %s\n", c.str().c_str());
        }
        if (d.executed.has_value()) {
            std::printf("    => executed %s (%d escalation(s))\n",
                        d.executed->str().c_str(), d.escalations);
        } else {
            std::printf("    => UNRESOLVED: %s\n", d.rationale.c_str());
        }
    }
    std::printf("  brake state: %s | rear brake %s | drivetrain assist %s\n",
                rte::to_string(ego.rte().component("brake_ctrl").state()),
                ego.brakes().rear_available() ? "ok" : "LOST",
                ego.brakes().drivetrain_assist() ? "ENGAGED" : "off");
    std::printf("  speed limit: %s | objective: %s\n",
                ego.acc().speed_limit().has_value() ? "15 m/s" : "none",
                core::to_string(ego.objective_layer().objective()));
}

} // namespace

int main() {
    {
        auto scenario = make_vehicle(/*with_redundancy=*/true);
        attack_and_run(*scenario);
        print_audit(*scenario, "variant A: redundant brake channel (safety layer covers)");
    }
    {
        auto scenario = make_vehicle(/*with_redundancy=*/false);
        attack_and_run(*scenario);
        print_audit(*scenario,
                    "variant B: no redundancy (ability layer compensates, driving continues)");
    }
    std::printf("\nintrusion_response finished.\n");
    return 0;
}
