// §IV scenario: ACC driving with the skill/ability graph monitoring sensor
// data quality. The vehicle enters dense fog; camera and lidar quality
// collapse; the ability graph propagates the degradation to the root skill;
// the degradation manager reacts by widening the time gap and reducing the
// set speed. The run prints the ability timeline.
//
// The driving loop, sensors, quality monitors, ability bindings and tactics
// are all declared on the vehicle builder; the example only scripts the
// weather and prints the timeline.
//
// Build & run:  ./build/examples/acc_degradation

#include <cstdio>
#include <memory>

#include "scenario/scenario_builder.hpp"

using namespace sa;
using sim::Duration;
using sim::Time;

int main() {
    scenario::ScenarioBuilder builder(7);

    // Closed-loop ACC scenario with three environmental sensors feeding the
    // perception skill (weighted fusion, radar dominant).
    vehicle::ScenarioConfig cfg;
    cfg.initial_gap_m = 55.0;
    cfg.ego_speed_mps = 26.0;

    monitor::SensorQualityConfig mq;
    mq.nominal_noise_sigma = 0.6;

    // The §IV ACC graph with a fusion-aware perception stack.
    auto acc_graph = std::make_shared<skills::SkillGraphSpec>(
        *skills::CapabilityRegistry::builtin().spec("acc"));
    acc_graph->aggregate(skills::acc::kPerceiveTrack, skills::Aggregation::WeightedMean)
        .weight(skills::acc::kPerceiveTrack, skills::acc::kRadar, 3.0)
        .weight(skills::acc::kPerceiveTrack, skills::acc::kCamera, 1.0)
        .weight(skills::acc::kPerceiveTrack, skills::acc::kLidar, 1.0);

    builder.vehicle("ego")
        .driving(cfg)
        .sensor({vehicle::SensorType::Radar, "radar", 150.0, 0.3, 0.002}, mq,
                skills::acc::kRadar)
        .sensor({vehicle::SensorType::Camera, "camera", 100.0, 0.5, 0.005}, mq,
                skills::acc::kCamera)
        .sensor({vehicle::SensorType::Lidar, "lidar", 120.0, 0.15, 0.003}, mq,
                skills::acc::kLidar)
        .skill_graph(acc_graph)
        // Degradation tactics: widen gap first, then clamp speed.
        .tactic("widen_time_gap", skills::acc::kPerceiveTrack, 0.5, 0.85, 1,
                [](scenario::Vehicle& v) {
                    v.acc().set_time_gap(2.8);
                    std::printf("  t=%6.1fs  TACTIC widen_time_gap (2.8 s)\n",
                                v.simulator().now().s());
                })
        .tactic("reduce_set_speed", skills::acc::kPerceiveTrack, 0.0, 0.6, 2,
                [](scenario::Vehicle& v) {
                    v.acc().set_speed_limit(14.0);
                    std::printf("  t=%6.1fs  TACTIC reduce_set_speed (14 m/s)\n",
                                v.simulator().now().s());
                })
        // Re-plan tactics periodically from the current ability state.
        .plan_tactics_every(Duration::ms(500))
        // The lead vehicle also slows down in the fog (it has drivers too).
        .lead_profile([](Time t) { return t.s() < 20.0 ? 22.0 : 12.0; });

    auto scenario = builder.build();
    auto& ego = scenario->only_vehicle();

    ego.abilities().level_changed().subscribe(
        [&](const std::string& node, skills::AbilityLevel from, skills::AbilityLevel to) {
            std::printf("  t=%6.1fs  ability %-32s %s -> %s\n",
                        scenario->simulator().now().s(), node.c_str(),
                        skills::to_string(from), skills::to_string(to));
        });

    std::printf("phase 1: clear weather (0-20 s)\n");
    scenario->run(Duration::sec(20));
    std::printf("  gap %.1f m, speed %.1f m/s, perceive level %.2f\n",
                ego.driving().gap_m(), ego.driving().ego_speed(),
                ego.abilities().level(skills::acc::kPerceiveTrack));

    std::printf("phase 2: entering dense fog (20-60 s)\n");
    scenario->set_weather(vehicle::WeatherCondition::dense_fog());
    scenario->run(Duration::sec(60));

    std::printf("\nresult after 60 s:\n");
    std::printf("  collided: %s, min gap %.1f m\n",
                ego.driving().collided() ? "YES" : "no",
                ego.driving().gap_stats().min());
    std::printf("  ego speed %.1f m/s (limit %s)\n", ego.driving().ego_speed(),
                ego.acc().speed_limit().has_value() ? "active" : "none");
    std::printf("  ability %-28s: %.2f (%s)\n", skills::acc::kPerceiveTrack,
                ego.abilities().level(skills::acc::kPerceiveTrack),
                skills::to_string(ego.abilities().ability(skills::acc::kPerceiveTrack)));
    std::printf("  ability %-28s: %.2f (%s)\n", skills::acc::kAccDriving,
                ego.abilities().level(skills::acc::kAccDriving),
                skills::to_string(ego.abilities().ability(skills::acc::kAccDriving)));
    std::printf("  tactics applied: %zu\n", ego.tactics().history().size());
    return ego.driving().collided() ? 1 : 0;
}
