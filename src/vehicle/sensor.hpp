#pragma once
// Environmental sensor models (radar / lidar / camera) with weather-dependent
// degradation: range shrinkage, noise inflation and dropouts. §IV demands
// "data quality assessment for environmental sensors"; these models produce
// exactly the imperfect streams the SensorQualityMonitor has to judge.

#include <optional>
#include <string>

#include "util/random.hpp"
#include "vehicle/weather.hpp"

namespace sa::vehicle {

enum class SensorType { Radar, Lidar, Camera };

struct SensorConfig {
    SensorType type = SensorType::Radar;
    std::string name = "radar";
    double max_range_m = 150.0;
    double noise_sigma_m = 0.3;   ///< clear-weather measurement noise
    double dropout_prob = 0.005;  ///< clear-weather dropout probability
};

/// Sensor susceptibility to weather, per type. Values are the *remaining*
/// fraction at worst-case weather (fog = 1 / rain = 1).
struct Susceptibility {
    double range_fog;
    double range_rain;
    double noise_fog;  ///< noise multiplier at fog = 1
    double dropout_fog;///< extra dropout probability at fog = 1
};

[[nodiscard]] Susceptibility susceptibility(SensorType type) noexcept;

struct RangeMeasurement {
    double range_m = 0.0;
    bool valid = false;
};

class RangeSensor {
public:
    explicit RangeSensor(SensorConfig config) : config_(std::move(config)) {}

    /// Measure the distance to an object at `true_range_m` under `weather`.
    /// Out-of-range or dropped measurements return valid = false.
    [[nodiscard]] RangeMeasurement measure(double true_range_m,
                                           const WeatherCondition& weather,
                                           RandomEngine& rng) const;

    /// Effective maximum range under the given weather.
    [[nodiscard]] double effective_range_m(const WeatherCondition& weather) const;

    /// Effective noise sigma under the given weather.
    [[nodiscard]] double effective_noise_m(const WeatherCondition& weather) const;

    /// Effective dropout probability under the given weather.
    [[nodiscard]] double effective_dropout(const WeatherCondition& weather) const;

private:
    SensorConfig config_;
};

} // namespace sa::vehicle
