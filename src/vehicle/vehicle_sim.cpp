#include "vehicle/vehicle_sim.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace sa::vehicle {

namespace {

/// Period of the sense-fuse-control loop.
constexpr sim::Duration kControlPeriod = sim::Duration::ms(50);

} // namespace

VehicleSim::VehicleSim(sim::Simulator& simulator, ScenarioConfig config)
    : simulator_(simulator),
      lead_position_(config.initial_gap_m),
      lead_speed_(config.lead_speed_mps) {
    ego_.set_speed(config.ego_speed_mps);
    ego_.set_position(0.0);
}

std::size_t VehicleSim::add_sensor(SensorConfig sensor) {
    SA_REQUIRE(periodic_id_ == 0, "add sensors before start()");
    sensors_.emplace_back(std::move(sensor));
    quality_monitors_.push_back(nullptr);
    sensor_bias_.push_back(0.0);
    last_measurement_.emplace_back();
    return sensors_.size() - 1;
}

void VehicleSim::attach_quality_monitor(std::size_t sensor_index,
                                        monitor::SensorQualityMonitor& monitor) {
    SA_REQUIRE(sensor_index < sensors_.size(), "sensor index out of range");
    quality_monitors_[sensor_index] = &monitor;
}

void VehicleSim::set_sensor_bias(std::size_t sensor_index, double bias_m) {
    SA_REQUIRE(sensor_index < sensors_.size(), "sensor index out of range");
    sensor_bias_[sensor_index] = bias_m;
}

std::optional<double> VehicleSim::last_measurement(std::size_t sensor_index) const {
    SA_REQUIRE(sensor_index < sensors_.size(), "sensor index out of range");
    return last_measurement_[sensor_index];
}

void VehicleSim::start() {
    if (periodic_id_ != 0) {
        return;
    }
    periodic_id_ =
        simulator_.schedule_periodic(kControlPeriod, [this] { control_step(); });
}

void VehicleSim::stop() {
    if (periodic_id_ != 0) {
        simulator_.cancel_periodic(periodic_id_);
        periodic_id_ = 0;
    }
}

double VehicleSim::gap_m() const noexcept { return lead_position_ - ego_.position_m(); }

std::optional<double> VehicleSim::sense_and_fuse() {
    const double true_gap = gap_m();
    double sum = 0.0;
    int n = 0;
    for (std::size_t i = 0; i < sensors_.size(); ++i) {
        RangeMeasurement m =
            sensors_[i].measure(true_gap, weather_, simulator_.rng());
        // Calibration drift: the bias rides on every valid return, upstream
        // of both the quality monitor and the fusion.
        m.range_m += sensor_bias_[i];
        if (quality_monitors_[i] != nullptr) {
            // Feed the monitor with the raw stream: dropouts are missing
            // samples (availability), invalid returns lower validity.
            if (m.valid) {
                quality_monitors_[i]->sample(m.range_m, true);
            }
            // Invalid measurements produce *no* sample — exactly the dropout
            // signature the availability estimator looks for.
        }
        if (m.valid) {
            last_measurement_[i] = m.range_m;
            sum += m.range_m;
            ++n;
        }
    }
    if (n == 0) {
        return std::nullopt;
    }
    return sum / n;
}

void VehicleSim::control_step() {
    const double dt = kControlPeriod.to_seconds();
    ++steps_;

    // Lead vehicle update.
    if (lead_profile_) {
        lead_speed_ = std::max(0.0, lead_profile_(simulator_.now()));
    }
    lead_position_ += lead_speed_ * dt;

    // Perception.
    prev_fused_gap_ = fused_gap_;
    fused_gap_ = sense_and_fuse();
    if (fused_gap_.has_value()) {
        ++valid_fusions_;
    } else {
        ++blind_steps_;
    }

    // Closing speed estimate from consecutive fused gaps.
    std::optional<double> closing;
    if (fused_gap_.has_value() && prev_fused_gap_.has_value()) {
        closing = (*prev_fused_gap_ - *fused_gap_) / dt;
    }

    // Control + actuation through the (possibly degraded) brake system.
    const AccCommand cmd = acc_.step(ego_.speed_mps(), fused_gap_, closing);
    ego_.step(dt, cmd.throttle, cmd.brake, brakes_.effectiveness());

    // Bookkeeping.
    const double gap = gap_m();
    gap_stats_.add(gap);
    if (gap <= 0.0) {
        collided_ = true;
    }
}

} // namespace sa::vehicle
