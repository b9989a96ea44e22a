#pragma once
// Adaptive Cruise Control: constant-time-gap spacing policy with a speed
// controller fallback. The controller exposes the hooks the ability layer
// pulls during graceful degradation: a max-speed clamp ("reducing the
// maximum speed ... to stay in safe margins", §V) and a time-gap widening.

#include <optional>

namespace sa::vehicle {

struct AccCommand {
    double throttle = 0.0; ///< [0, 1]
    double brake = 0.0;    ///< [0, 1]
    bool following = false;///< true if regulating on a lead vehicle
};

class AccController {
public:
    /// Standstill gap and initial time gap of the spacing policy: the
    /// desired gap is kMinGapM + time_gap * ego speed.
    static constexpr double kMinGapM = 5.0;
    static constexpr double kInitialTimeGapS = 1.8;

    /// One control step. `measured_gap_m`/`closing_speed_mps` come from the
    /// perception chain (nullopt when no valid target): without a target the
    /// controller regulates speed only.
    [[nodiscard]] AccCommand step(double ego_speed_mps,
                                  std::optional<double> measured_gap_m,
                                  std::optional<double> closing_speed_mps);

    // --- degradation hooks --------------------------------------------------
    /// Clamp the effective set speed (ability-layer tactic). nullopt = clear.
    void set_speed_limit(std::optional<double> limit_mps) { speed_limit_ = limit_mps; }
    [[nodiscard]] std::optional<double> speed_limit() const noexcept {
        return speed_limit_;
    }
    /// Widen the time gap (degraded sensing => more margin).
    void set_time_gap(double seconds) { time_gap_s_ = seconds; }

    [[nodiscard]] double effective_set_speed() const noexcept;

private:
    double time_gap_s_ = kInitialTimeGapS;
    std::optional<double> speed_limit_;
};

} // namespace sa::vehicle
