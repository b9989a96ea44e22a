#pragma once
// First-order RC thermal model of an ECU (§V: "Ambient temperatures are a
// source of common cause faults... can cause performance degradation of the
// (hardware) platform, which ... may influence the error model and/or require
// voltage or frequency scaling to prevent permanent damage").
//
//   dT/dt = (T_ambient + R_th * P - T) / tau
//   P     = P_idle + P_dyn * utilization * speed^2
//
// The model updates periodically from the scheduler's measured utilization
// and publishes the die temperature; the platform layer of the cross-layer
// coordinator reacts with DVFS.

#include "sim/signal.hpp"
#include "sim/simulator.hpp"

namespace sa::rte {

class FixedPriorityScheduler;

struct ThermalConfig {
    double ambient_c = 25.0;
    double tau_s = 20.0;           ///< thermal time constant
    double r_th_c_per_w = 6.0;     ///< junction-to-ambient thermal resistance
    double p_idle_w = 1.5;
    double p_dyn_w = 8.0;          ///< at 100% utilization, speed 1.0
    double initial_c = 25.0;
    sim::Duration update_period = sim::Duration::ms(100);
};

class ThermalModel {
public:
    ThermalModel(sim::Simulator& simulator, FixedPriorityScheduler& scheduler,
                 ThermalConfig config = {});

    void start();
    void stop();

    [[nodiscard]] double temperature_c() const noexcept { return temp_c_; }
    [[nodiscard]] double ambient_c() const noexcept { return config_.ambient_c; }
    void set_ambient_c(double ambient);

    /// Emitted after every update with the new die temperature.
    sim::Signal<double>& temperature_updated() noexcept { return updated_; }

    [[nodiscard]] const ThermalConfig& config() const noexcept { return config_; }

private:
    void update();

    sim::Simulator& simulator_;
    FixedPriorityScheduler& scheduler_;
    ThermalConfig config_;
    double temp_c_;
    std::int64_t last_busy_ns_ = 0;
    sim::Time last_update_ = sim::Time::zero();
    std::uint64_t periodic_id_ = 0;
    sim::Signal<double> updated_;
};

} // namespace sa::rte
