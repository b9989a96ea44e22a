#pragma once
// Brake-by-wire with separate front and rear channels — the stage for §V's
// security example ("a security flaw in the software component governing
// rear braking"). Channel availability maps to overall effectiveness; the
// ability layer compensates a lost rear channel by reducing speed and using
// powertrain drag ("generating additional brake torque from the drive
// train").

namespace sa::vehicle {

struct BrakeSplit {
    double front_fraction = 0.65; ///< share of total brake force on the front axle
    double drivetrain_fraction = 0.12; ///< extra retardation available from the powertrain
};

class BrakeByWire {
public:
    explicit BrakeByWire(BrakeSplit split = {}) : split_(split) {}

    void set_front_available(bool available) noexcept { front_ = available; }
    void set_rear_available(bool available) noexcept { rear_ = available; }
    /// Engage powertrain braking as a compensation tactic.
    void set_drivetrain_assist(bool engaged) noexcept { drivetrain_ = engaged; }

    [[nodiscard]] bool rear_available() const noexcept { return rear_; }
    [[nodiscard]] bool drivetrain_assist() const noexcept { return drivetrain_; }

    /// Fraction of nominal brake force currently available, in [0, 1+].
    [[nodiscard]] double effectiveness() const noexcept;

    /// Ability-graph level for the brake_system sink in [0, 1].
    [[nodiscard]] double ability_level() const noexcept;

private:
    BrakeSplit split_;
    bool front_ = true;
    bool rear_ = true;
    bool drivetrain_ = false;
};

} // namespace sa::vehicle
