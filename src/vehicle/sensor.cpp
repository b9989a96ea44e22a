#include "vehicle/sensor.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace sa::vehicle {

Susceptibility susceptibility(SensorType type) noexcept {
    // Radar barely cares about fog; lidar suffers; cameras are nearly blind
    // in dense fog (§V: "driving in dense fog with inappropriate or broken
    // sensors will not be possible").
    switch (type) {
    case SensorType::Radar: return Susceptibility{0.85, 0.80, 1.5, 0.02};
    case SensorType::Lidar: return Susceptibility{0.35, 0.60, 3.0, 0.25};
    case SensorType::Camera: return Susceptibility{0.10, 0.50, 4.0, 0.50};
    }
    return Susceptibility{1.0, 1.0, 1.0, 0.0};
}

double RangeSensor::effective_range_m(const WeatherCondition& weather) const {
    const Susceptibility s = susceptibility(config_.type);
    const double fog_factor = 1.0 - (1.0 - s.range_fog) * weather.fog;
    const double rain_factor = 1.0 - (1.0 - s.range_rain) * weather.rain;
    return config_.max_range_m * fog_factor * rain_factor;
}

double RangeSensor::effective_noise_m(const WeatherCondition& weather) const {
    const Susceptibility s = susceptibility(config_.type);
    return config_.noise_sigma_m * (1.0 + (s.noise_fog - 1.0) * weather.fog);
}

double RangeSensor::effective_dropout(const WeatherCondition& weather) const {
    const Susceptibility s = susceptibility(config_.type);
    return std::clamp(config_.dropout_prob + s.dropout_fog * weather.fog, 0.0, 1.0);
}

RangeMeasurement RangeSensor::measure(double true_range_m,
                                      const WeatherCondition& weather,
                                      RandomEngine& rng) const {
    SA_REQUIRE(true_range_m >= 0.0, "true range must be non-negative");
    RangeMeasurement out;
    if (true_range_m > effective_range_m(weather)) {
        return out; // beyond effective range: no detection
    }
    if (rng.chance(effective_dropout(weather))) {
        return out; // dropout
    }
    out.range_m = std::max(0.0, rng.normal(true_range_m, effective_noise_m(weather)));
    out.valid = true;
    return out;
}

} // namespace sa::vehicle
