#pragma once
// A simulated ECU: one CPU with a fixed-priority preemptive scheduler,
// discrete DVFS levels and a thermal model. The platform layer of the
// cross-layer coordinator manipulates DVFS; the MCC maps components here.

#include <memory>
#include <string>
#include <vector>

#include "rte/scheduler.hpp"
#include "rte/thermal.hpp"

namespace sa::rte {

struct EcuConfig {
    std::string name;
    /// Available DVFS speed factors, highest first. Level 0 = full speed.
    std::vector<double> dvfs_levels{1.0, 0.8, 0.6, 0.4};
    ThermalConfig thermal{};
};

class Ecu {
public:
    Ecu(sim::Simulator& simulator, EcuConfig config);

    Ecu(const Ecu&) = delete;
    Ecu& operator=(const Ecu&) = delete;

    [[nodiscard]] const std::string& name() const noexcept { return config_.name; }
    FixedPriorityScheduler& scheduler() noexcept { return scheduler_; }
    ThermalModel& thermal() noexcept { return thermal_; }

    /// Select DVFS level (0 = fastest). Clamped to the available range.
    void set_dvfs_level(int level);
    [[nodiscard]] int dvfs_level() const noexcept { return dvfs_level_; }
    [[nodiscard]] int dvfs_level_count() const noexcept {
        return static_cast<int>(config_.dvfs_levels.size());
    }
    /// Speed factor a given DVFS level would yield (level clamped to range).
    [[nodiscard]] double dvfs_speed(int level) const noexcept;
    [[nodiscard]] double speed_factor() const noexcept {
        return scheduler_.speed_factor();
    }

    void start();
    void stop();

private:
    sim::Simulator& simulator_;
    EcuConfig config_;
    FixedPriorityScheduler scheduler_;
    ThermalModel thermal_;
    int dvfs_level_ = 0;
};

} // namespace sa::rte
