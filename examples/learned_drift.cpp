// The sa::learn payoff scenario: an ACC vehicle whose radar develops a slow
// calibration drift. The bias rides inside every valid sample — availability,
// validity and noise variance never change, so no threshold monitor (sensor
// quality, range, rate) ever reacts — but the radar and camera streams slowly
// pull apart around the regulated gap, the learned monitor's joint metric
// state lands somewhere it has never been, and its learned_abnormality alarm
// degrades the ACC skill through the standard policy.
//
// Exits non-zero when any of the payoff claims fail, so the auto-generated
// ctest (example_learned_drift) doubles as the drift smoke test:
//   - no learned alarm during the clean phase (t < drift start)
//   - a learned_abnormality fires after the drift starts
//   - zero sensor_degraded / sensor_failed anomalies for the whole run
//   - the policy caps the radar capability and acc_driving degrades
//
// Build & run:  ./build/examples/learned_drift

#include <cstdio>
#include <string>

#include "monitor/anomaly_kinds.hpp"
#include "scenario/presets.hpp"
#include "skills/acc_graph_factory.hpp"

using namespace sa;
using sim::Duration;

int main() {
    const scenario::presets::DriftDemoConfig config; // seed 7, 40 s, drift ramp at 32 s

    scenario::ScenarioBuilder builder = scenario::presets::make_drift_demo(config);
    auto scenario = builder.build();
    auto& ego = scenario->only_vehicle();

    std::size_t learned_alarms = 0;
    std::size_t clean_phase_alarms = 0;
    std::size_t quality_anomalies = 0;
    ego.monitors().anomalies().subscribe([&](const monitor::Anomaly& anomaly) {
        if (anomaly.kind == monitor::kinds::kLearnedAbnormality) {
            ++learned_alarms;
            if (anomaly.at.ns() < config.drift_start.count_ns()) {
                ++clean_phase_alarms;
            }
        } else if (anomaly.kind == monitor::kinds::kSensorDegraded ||
                   anomaly.kind == monitor::kinds::kSensorFailed) {
            ++quality_anomalies;
        }
        std::printf("  t=%6.1fs  ANOMALY %-20s %s\n", anomaly.at.s(),
                    anomaly.kind.c_str(), anomaly.detail.c_str());
    });
    ego.abilities().level_changed().subscribe(
        [&](const std::string& node, skills::AbilityLevel from,
            skills::AbilityLevel to) {
            std::printf("  t=%6.1fs  ability %-28s %s -> %s\n",
                        scenario->simulator().now().s(), node.c_str(),
                        skills::to_string(from), skills::to_string(to));
        });

    std::printf("phase 1: clean following, learned monitor training (0-%.0f s)\n",
                static_cast<double>(config.drift_start.count_ns()) / 1e9);
    scenario->run(config.drift_start);
    const auto& monitor = ego.learned_monitor();
    std::printf("  gap %.1f m, states learned %zu, score %.2f bits, alarmed %s\n",
                ego.driving().gap_m(), monitor.state_model().state_count(),
                monitor.score(), monitor.alarmed() ? "YES" : "no");

    std::printf("phase 2: radar calibration walks %.1f m in %d steps (no "
                "threshold crossed)\n",
                config.drift_step_m * config.drift_steps, config.drift_steps);
    scenario->run(config.duration); // run() takes an absolute time

    const double radar_level = ego.abilities().level(skills::acc::kRadar);
    const double acc_level = ego.abilities().level(skills::acc::kAccDriving);
    std::printf("\nresult after %.0f s:\n",
                static_cast<double>(config.duration.count_ns()) / 1e9);
    std::printf("  learned alarms: %zu (%zu before drift), score %.2f bits\n",
                learned_alarms, clean_phase_alarms, monitor.score());
    std::printf("  sensor-quality anomalies: %zu (the drift never trips a "
                "threshold)\n",
                quality_anomalies);
    std::printf("  ability %-28s: %.2f\n", skills::acc::kRadar, radar_level);
    std::printf("  ability %-28s: %.2f\n", skills::acc::kAccDriving, acc_level);
    std::printf("  collided: %s\n", ego.driving().collided() ? "YES" : "no");

    bool ok = true;
    if (clean_phase_alarms != 0) {
        std::printf("FAIL: learned monitor alarmed during the clean phase\n");
        ok = false;
    }
    if (learned_alarms == 0) {
        std::printf("FAIL: the drift never raised a learned_abnormality\n");
        ok = false;
    }
    if (quality_anomalies != 0) {
        std::printf("FAIL: a threshold monitor reacted; the drift is supposed "
                    "to be invisible to them\n");
        ok = false;
    }
    if (radar_level > config.degraded_radar_level + 1e-9) {
        std::printf("FAIL: radar capability not capped (%.2f > %.2f)\n",
                    radar_level, config.degraded_radar_level);
        ok = false;
    }
    if (acc_level >= 1.0) {
        std::printf("FAIL: acc_driving did not degrade\n");
        ok = false;
    }
    return ok ? 0 : 1;
}
