#include "vehicle/longitudinal.hpp"

#include "util/assert.hpp"

namespace sa::vehicle {

namespace {

constexpr double kMassKg = 1600.0;
constexpr double kDrag = 0.40;           ///< 0.5 * rho * cd * A  [kg/m]
constexpr double kRollingCoeff = 0.012;  ///< rolling resistance coefficient
constexpr double kMaxEngineForceN = 4500.0;
constexpr double kMaxBrakeForceN = 12000.0; ///< full system (front + rear)
constexpr double kGravity = 9.81;

} // namespace

void LongitudinalModel::step(double dt_s, double throttle, double brake,
                             double brake_effectiveness) {
    SA_REQUIRE(dt_s > 0.0, "time step must be positive");
    throttle = std::clamp(throttle, 0.0, 1.0);
    brake = std::clamp(brake, 0.0, 1.0);
    brake_effectiveness = std::clamp(brake_effectiveness, 0.0, 1.0);

    const double f_engine = throttle * kMaxEngineForceN;
    const double f_brake = brake * kMaxBrakeForceN * brake_effectiveness;
    const double f_drag = kDrag * speed_ * speed_;
    const double f_roll = speed_ > 0.0 ? kRollingCoeff * kMassKg * kGravity : 0.0;

    const double accel = (f_engine - f_brake - f_drag - f_roll) / kMassKg;
    speed_ = std::max(0.0, speed_ + accel * dt_s);
    position_ += speed_ * dt_s;
}

double LongitudinalModel::stopping_distance(double speed,
                                            double brake_effectiveness) const {
    brake_effectiveness = std::clamp(brake_effectiveness, 0.01, 1.0);
    const double decel = kMaxBrakeForceN * brake_effectiveness / kMassKg;
    return speed * speed / (2.0 * decel);
}

} // namespace sa::vehicle
