// Degradation-triggered platoon split, end to end: three vehicles follow
// each other with the registry's platoon_follow skill graph. Dense fog rolls
// in and dims every radar (the quality monitors push the loss into the
// ability graphs); then the middle vehicle's V2V transceiver fails outright.
// Its follow skill collapses below the split threshold, and the maneuver
// engine splits the platoon at its position — the vehicles behind cannot
// safely follow through a blind member. The run prints the ability timeline
// and the maneuver audit.
//
// Everything is declared on the builders: the skill graph comes from the
// capability registry ("platoon_follow"), alarms map onto capability
// downgrades through the shared DegradationPolicy, and the split is decided
// by the scenario's maneuver policy — no hand-wired glue.
//
// Build & run:  ./build/examples/platoon_degradation_split

#include <cstdio>

#include "monitor/anomaly_kinds.hpp"
#include "scenario/scenario_builder.hpp"

using namespace sa;
using sim::Duration;
using sim::Time;

namespace {

constexpr const char* kVehicles[] = {"lead", "wing", "mid", "tail"};

} // namespace

int main() {
    scenario::ScenarioBuilder builder(2049);

    vehicle::ScenarioConfig cfg;
    cfg.initial_gap_m = 35.0;
    cfg.ego_speed_mps = 22.0;
    monitor::SensorQualityConfig quality;
    quality.nominal_noise_sigma = 0.6;

    for (const char* name : kVehicles) {
        builder.vehicle(name)
            .driving(cfg)
            // The radar quality monitor feeds the radar capability of the
            // platoon_follow graph; fog degrades it for every vehicle.
            .sensor({vehicle::SensorType::Radar, "radar", 150.0, 0.3, 0.002}, quality,
                    skills::acc::kRadar)
            .skill_graph("platoon_follow")
            .degradation_policy(skills::DegradationPolicy{});
        builder.trust(name, 12).platoon_candidate({name, 0.9, 22.0, 12.0, false});
    }

    platoon::ManeuverPolicy policy;
    policy.check_period = Duration::ms(250);
    policy.leave_below = 0.5;
    policy.split_below = 0.15;
    builder.platoon_maneuvers(policy);

    builder
        .at(Duration::ms(500),
            [](scenario::Scenario& s) {
                const auto& agreement = s.form_managed_platoon();
                std::printf("t=%5.2fs  platoon formed: %zu member(s), common "
                            "speed %.1f m/s, gap %.1f m\n",
                            0.5, agreement.members.size(),
                            agreement.common_speed_mps, agreement.min_gap_m);
            })
        .at(Duration::sec(2),
            [](scenario::Scenario& s) {
                std::printf("t=%5.2fs  dense fog rolls in\n", 2.0);
                s.set_weather(vehicle::WeatherCondition::dense_fog());
            })
        .at(Duration::sec(4), [](scenario::Scenario& s) {
            // The mid vehicle's V2V transceiver dies. The failure surfaces
            // as a monitor alarm; the degradation policy maps it onto the
            // v2v_link capability through the registry's alarm bindings.
            std::printf("t=%5.2fs  FAULT: mid vehicle V2V transceiver failed\n", 4.0);
            auto& mid = s.vehicle("mid");
            monitor::Anomaly fault;
            fault.at = mid.simulator().now();
            fault.domain = monitor::Domain::Sensor;
            fault.severity = monitor::Severity::Critical;
            fault.source = skills::caps::kV2vLink;
            fault.kind = sa::monitor::kinds::kSensorFailed;
            mid.monitors().anomalies().emit(fault);
        });

    auto scenario = builder.build();

    for (const char* name : kVehicles) {
        scenario->vehicle(name).abilities().level_changed().subscribe(
            [name, &scenario](const std::string& node, skills::AbilityLevel from,
                              skills::AbilityLevel to) {
                if (node == skills::caps::kPlatoonFollow) {
                    std::printf("t=%5.2fs  %-4s follow ability %s -> %s\n",
                                scenario->vehicle(name).simulator().now().s(), name,
                                skills::to_string(from), skills::to_string(to));
                }
            });
    }

    scenario->run(Duration::sec(6));

    std::printf("\nmaneuver audit:\n");
    for (const auto& record : scenario->platoon().history()) {
        std::printf("  %s\n", record.str().c_str());
    }

    std::printf("\nfinal state:\n");
    std::printf("  head platoon: %s, members:", scenario->platoon().formed()
                                                    ? "formed"
                                                    : "dissolved");
    for (const auto& name : scenario->platoon().member_names()) {
        std::printf(" %s", name.c_str());
    }
    std::printf("\n  detached group:");
    for (const auto& member : scenario->detached_members()) {
        std::printf(" %s", member.id.c_str());
    }
    std::printf("\n");
    for (const char* name : kVehicles) {
        auto& v = scenario->vehicle(name);
        std::printf("  %-4s follow=%.2f (%s), policy downgrades: %zu\n", name,
                    v.abilities().level(skills::caps::kPlatoonFollow),
                    skills::to_string(
                        v.abilities().ability(skills::caps::kPlatoonFollow)),
                    v.degradation_policy().history().size());
    }

    const bool split_happened =
        !scenario->detached_members().empty() &&
        scenario->detached_members().front().id == std::string("mid");
    if (!split_happened) {
        std::printf("ERROR: expected the platoon to split at 'mid'\n");
        return 1;
    }
    std::printf("\nplatoon_degradation_split finished.\n");
    return 0;
}
