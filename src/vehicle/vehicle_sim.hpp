#pragma once
// Closed-loop driving scenario: an ego vehicle with ACC follows a lead
// vehicle; multiple range sensors fused by a simple validity-weighted
// average feed the controller; sensor-quality monitors watch each stream.
// This is the executable backdrop for the §IV (ACC skill graph) and §V
// (fog / rear-brake) experiments.

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "monitor/sensor_quality_monitor.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"
#include "vehicle/acc_controller.hpp"
#include "vehicle/brake_by_wire.hpp"
#include "vehicle/longitudinal.hpp"
#include "vehicle/sensor.hpp"

namespace sa::vehicle {

struct ScenarioConfig {
    double initial_gap_m = 60.0;
    double ego_speed_mps = 25.0;
    double lead_speed_mps = 22.0;
};

/// Lead-vehicle speed profile: time -> speed (m/s). Default: constant.
using LeadProfile = std::function<double(sim::Time)>;

class VehicleSim {
public:
    VehicleSim(sim::Simulator& simulator, ScenarioConfig config = {});

    /// Add a range sensor; returns its index. Call before start().
    std::size_t add_sensor(SensorConfig sensor);

    /// Attach a quality monitor to a sensor stream (index from add_sensor).
    void attach_quality_monitor(std::size_t sensor_index,
                                monitor::SensorQualityMonitor& monitor);

    /// Additive measurement bias (m) injected into every valid sample of the
    /// sensor — a calibration-drift fault. The quality monitor sees the
    /// biased stream too: availability, validity and noise variance are all
    /// unchanged, so no threshold monitor reacts (the learned monitor's
    /// use case).
    void set_sensor_bias(std::size_t sensor_index, double bias_m);

    /// Last valid (bias-included) measurement of a sensor stream; empty
    /// until the sensor returned its first valid sample.
    [[nodiscard]] std::optional<double> last_measurement(std::size_t sensor_index) const;

    void set_lead_profile(LeadProfile profile) { lead_profile_ = std::move(profile); }
    /// Weather the sensors see; clear until set.
    void set_weather(const WeatherCondition& weather) { weather_ = weather; }
    [[nodiscard]] const WeatherCondition& weather() const noexcept { return weather_; }

    void start();
    void stop();

    // --- state --------------------------------------------------------------
    [[nodiscard]] double gap_m() const noexcept;
    [[nodiscard]] double ego_speed() const noexcept { return ego_.speed_mps(); }
    [[nodiscard]] bool collided() const noexcept { return collided_; }
    [[nodiscard]] std::uint64_t control_steps() const noexcept { return steps_; }
    [[nodiscard]] std::uint64_t valid_fusions() const noexcept { return valid_fusions_; }
    [[nodiscard]] std::uint64_t blind_steps() const noexcept { return blind_steps_; }

    AccController& acc() noexcept { return acc_; }
    BrakeByWire& brakes() noexcept { return brakes_; }

    /// Gap statistics over the run (min is the safety-relevant figure).
    [[nodiscard]] const RunningStats& gap_stats() const noexcept { return gap_stats_; }

    /// Last fused measurement (for external monitors / ability feeds).
    [[nodiscard]] std::optional<double> last_fused_gap() const noexcept {
        return fused_gap_;
    }

private:
    void control_step();
    std::optional<double> sense_and_fuse();

    sim::Simulator& simulator_;
    WeatherCondition weather_ = WeatherCondition::clear();
    LongitudinalModel ego_;
    AccController acc_;
    BrakeByWire brakes_;
    double lead_position_;
    double lead_speed_;
    LeadProfile lead_profile_;
    std::vector<RangeSensor> sensors_;
    std::vector<monitor::SensorQualityMonitor*> quality_monitors_;
    std::vector<double> sensor_bias_;
    std::vector<std::optional<double>> last_measurement_;
    std::optional<double> fused_gap_;
    std::optional<double> prev_fused_gap_;
    std::uint64_t periodic_id_ = 0;
    std::uint64_t steps_ = 0;
    std::uint64_t valid_fusions_ = 0;
    std::uint64_t blind_steps_ = 0;
    bool collided_ = false;
    RunningStats gap_stats_;
};

} // namespace sa::vehicle
