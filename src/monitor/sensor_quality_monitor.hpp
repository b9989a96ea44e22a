#pragma once
// Sensor data-quality monitor — the capability the paper demands beyond
// state-of-the-art ("self-diagnostic capabilities need to be extended
// towards the data quality assessment for environmental sensors"). It
// ingests time-stamped samples from a sensor stream and estimates a quality
// score in [0, 1] from three components:
//   availability — fraction of expected samples that actually arrived
//   validity     — fraction of samples flagged valid by the source
//   stability    — penalty for noise variance above the nominal level
// The score feeds the ability graph (skills module) as a data-source level.

#include <deque>
#include <string>

#include "monitor/monitor.hpp"

namespace sa::monitor {

struct SensorQualityConfig {
    double nominal_noise_sigma = 0.1;  ///< expected measurement noise
};

class SensorQualityMonitor : public Monitor {
public:
    SensorQualityMonitor(sim::Simulator& simulator, std::string sensor_name,
                         SensorQualityConfig config = {});
    ~SensorQualityMonitor() override;

    /// Feed one measurement sample. `valid` = the driver's own validity flag
    /// (e.g. radar target confirmed); `value` is the measured quantity.
    void sample(double value, bool valid = true);

    void start();
    void stop();

    [[nodiscard]] double quality() const noexcept { return quality_; }
    [[nodiscard]] double availability() const noexcept { return availability_; }
    [[nodiscard]] double validity() const noexcept { return validity_; }
    [[nodiscard]] double stability() const noexcept { return stability_; }

    /// Emitted after each evaluation with the new quality score.
    sim::Signal<double>& quality_updated() noexcept { return quality_updated_; }

private:
    void evaluate();

    std::string sensor_;
    SensorQualityConfig config_;
    struct Sample {
        sim::Time at;
        double value;
        bool valid;
    };
    std::deque<Sample> samples_;
    double quality_ = 1.0;
    double availability_ = 1.0;
    double validity_ = 1.0;
    double stability_ = 1.0;
    bool degraded_alarmed_ = false;
    bool failed_alarmed_ = false;
    bool started_ = false;
    sim::Time started_at_ = sim::Time::zero();
    std::uint64_t periodic_id_ = 0;
    sim::Signal<double> quality_updated_;
};

} // namespace sa::monitor
