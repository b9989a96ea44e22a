#include "vehicle/acc_controller.hpp"

#include <algorithm>

namespace sa::vehicle {

namespace {

constexpr double kSetSpeedMps = 30.0;
constexpr double kKpGap = 0.12;   ///< gap error -> accel demand
constexpr double kKdGap = 0.35;   ///< closing-speed damping
constexpr double kKpSpeed = 0.35; ///< speed error -> accel demand
constexpr double kMaxAccel = 2.0; ///< m/s^2 demand clamp
constexpr double kMaxDecel = 6.0; ///< m/s^2 demand clamp

} // namespace

double AccController::effective_set_speed() const noexcept {
    if (speed_limit_.has_value()) {
        return std::min(kSetSpeedMps, *speed_limit_);
    }
    return kSetSpeedMps;
}

AccCommand AccController::step(double ego_speed_mps, std::optional<double> measured_gap_m,
                               std::optional<double> closing_speed_mps) {
    AccCommand cmd;

    // Speed-control demand towards the (possibly clamped) set speed.
    const double speed_error = effective_set_speed() - ego_speed_mps;
    double accel_demand = kKpSpeed * speed_error;

    // Gap-control demand if a target is measured; take the more conservative
    // (smaller) of the two demands.
    if (measured_gap_m.has_value()) {
        const double desired_gap =
            kMinGapM + time_gap_s_ * ego_speed_mps;
        const double gap_error = *measured_gap_m - desired_gap;
        const double closing = closing_speed_mps.value_or(0.0);
        const double gap_demand = kKpGap * gap_error - kKdGap * closing;
        accel_demand = std::min(accel_demand, gap_demand);
        cmd.following = true;
    }

    accel_demand = std::clamp(accel_demand, -kMaxDecel, kMaxAccel);
    if (accel_demand >= 0.0) {
        cmd.throttle = accel_demand / kMaxAccel;
    } else {
        cmd.brake = -accel_demand / kMaxDecel;
    }
    return cmd;
}

} // namespace sa::vehicle
