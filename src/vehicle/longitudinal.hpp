#pragma once
// Point-mass longitudinal vehicle dynamics — the plant behind the ACC and
// braking scenarios (the paper's x-by-wire research vehicle MOBILE is
// substituted by this model; see DESIGN.md).

#include <algorithm>

namespace sa::vehicle {

class LongitudinalModel {
public:
    /// Advance by dt seconds with normalized commands in [0, 1].
    /// `brake_effectiveness` scales available brake force (degraded rear
    /// braking reduces it; see BrakeByWire).
    void step(double dt_s, double throttle, double brake, double brake_effectiveness = 1.0);

    [[nodiscard]] double speed_mps() const noexcept { return speed_; }
    [[nodiscard]] double position_m() const noexcept { return position_; }
    void set_speed(double mps) noexcept { speed_ = std::max(0.0, mps); }
    void set_position(double m) noexcept { position_ = m; }

    /// Idealized stopping distance from `speed` with the given effectiveness
    /// (constant deceleration, no reaction time).
    [[nodiscard]] double stopping_distance(double speed, double brake_effectiveness) const;

private:
    double speed_ = 0.0;
    double position_ = 0.0;
};

} // namespace sa::vehicle
