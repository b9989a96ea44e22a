#pragma once
// Environmental conditions (§V: fog, weather-related degradation, ambient
// temperature as a common-cause fault source). Conditions scale sensor
// performance via per-sensor susceptibility factors.

namespace sa::vehicle {

struct WeatherCondition {
    double fog = 0.0;       ///< 0 = clear .. 1 = dense fog
    double rain = 0.0;      ///< 0 = dry .. 1 = downpour
    double ambient_c = 20.0;

    [[nodiscard]] static WeatherCondition clear() { return {}; }
    [[nodiscard]] static WeatherCondition dense_fog() { return {0.9, 0.0, 8.0}; }
};

/// Meteorological visibility in metres for human reference (used by route
/// planning heuristics and example output).
double visibility_m(const WeatherCondition& weather);

} // namespace sa::vehicle
