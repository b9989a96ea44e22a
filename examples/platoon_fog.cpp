// §V cooperation scenario: "driving in dense fog with inappropriate or
// broken sensors will not be possible by a single autonomous vehicle.
// Nevertheless, building a platoon with better equipped vehicles could still
// be a viable option, which, however, raises the issue of trustworthiness."
//
// A camera-only vehicle is blinded by fog. It evaluates its own safe speed,
// then tries to join a platoon of radar-equipped trucks. Trust history and
// platoon candidates are declared on the scenario builder; trust gating
// excludes a peer with a bad reputation; a byzantine insider with a clean
// record equivocates during the speed agreement and is absorbed by the
// trimmed-mean consensus.
//
// Build & run:  ./build/examples/platoon_fog

#include <cstdio>

#include "scenario/scenario_builder.hpp"

using namespace sa;
using namespace sa::platoon;

int main() {
    const auto fog = vehicle::WeatherCondition::dense_fog();
    std::printf("weather: dense fog, visibility %.0f m\n", vehicle::visibility_m(fog));

    // Our vehicle: camera only. Quality in fog ~ effective range fraction.
    vehicle::RangeSensor camera(
        vehicle::SensorConfig{vehicle::SensorType::Camera, "camera", 100.0, 0.5, 0.005});
    const double cam_quality = camera.effective_range_m(fog) / 100.0;
    const double alone_speed = safe_speed_for_quality(cam_quality);
    std::printf("ego: camera quality %.2f in fog -> safe speed alone %.1f m/s\n",
                cam_quality, alone_speed);

    // The candidate platoon: radar-equipped trucks.
    vehicle::RangeSensor radar(
        vehicle::SensorConfig{vehicle::SensorType::Radar, "radar", 150.0, 0.3, 0.002});
    const double radar_quality = radar.effective_range_m(fog) / 150.0;

    scenario::ScenarioBuilder builder(99);
    builder
        // Reputation from past interactions (broadcasts matching observations).
        .trust("truck_a", 12)
        .trust("truck_b", 12)
        .trust("insider", 12)  // clean record, but byzantine today
        .trust("shady_van", 0, 12) // known liar
        .trust("ego", 1)
        .platoon_candidate({"ego", cam_quality, 18.0, 14.0, false}) // safe *inside*
        .platoon_candidate({"truck_a", radar_quality,
                            safe_speed_for_quality(radar_quality), 10.0, false})
        .platoon_candidate({"truck_b", radar_quality,
                            safe_speed_for_quality(radar_quality) - 1.0, 10.0, false})
        .platoon_candidate({"insider", radar_quality, 0.0, 0.0, true}) // equivocates
        .platoon_candidate({"shady_van", radar_quality, 50.0, 2.0, false}); // gated out
    auto scenario = builder.build();

    for (const char* id : {"ego", "truck_a", "truck_b", "insider", "shady_van"}) {
        std::printf("  trust(%s) = %.2f\n", id, scenario->trust().trust(id));
    }

    const auto agreement = scenario->form_platoon();

    if (!agreement.formed) {
        std::printf("platoon not formed: %s\n", agreement.rejected_reason.c_str());
        return 1;
    }
    std::printf("\nplatoon formed with %zu member(s):", agreement.members.size());
    for (const auto& m : agreement.members) {
        std::printf(" %s", m.c_str());
    }
    std::printf("\n  speed consensus: %d round(s), spread %.3f, validity %s\n",
                agreement.speed_consensus.rounds, agreement.speed_consensus.spread,
                agreement.speed_consensus.validity_held ? "held" : "VIOLATED");
    std::printf("  agreed common speed: %.1f m/s (safe: %s)\n",
                agreement.common_speed_mps, agreement.speed_safe ? "yes" : "NO");
    std::printf("  agreed minimum gap:  %.1f m\n", agreement.min_gap_m);
    std::printf("\nego benefit: %.1f m/s in the platoon vs %.1f m/s alone (%.1fx)\n",
                agreement.common_speed_mps, alone_speed,
                agreement.common_speed_mps / alone_speed);
    return 0;
}
