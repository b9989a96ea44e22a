#pragma once
// Anomaly records shared by all monitors; anomalies feed the cross-layer
// coordinator (§V). Metric samples travel as (MetricId, value, time) through
// MonitorManager::ingest().

#include <string>

#include "sim/time.hpp"

namespace sa::monitor {

/// Origin domain of an observation — the system layer where the raw signal
/// was captured. The cross-layer coordinator maps domains to entry layers.
/// When adding an enumerator, extend kAllDomains below and the switches in
/// metric.cpp (to_string) and core/layer.cpp (entry_layer) — both compile
/// under -Wswitch -Werror, so a forgotten mapping fails the build.
enum class Domain { Platform, Network, Function, Sensor, Security };

/// Every Domain enumerator, for exhaustive iteration in tests and tooling.
inline constexpr Domain kAllDomains[] = {Domain::Platform, Domain::Network,
                                         Domain::Function, Domain::Sensor,
                                         Domain::Security};

const char* to_string(Domain domain) noexcept;

enum class Severity { Info = 0, Warning = 1, Critical = 2 };

/// A detected deviation from nominal behaviour.
struct Anomaly {
    sim::Time at;
    Domain domain = Domain::Platform;
    Severity severity = Severity::Warning;
    std::string source; ///< component / task / sensor / (client,service) pair
    std::string kind;   ///< machine-matchable: "deadline_miss", "rate_excess", ...
    std::string detail; ///< human-readable context
    double magnitude = 0.0; ///< normalized: how far beyond nominal (1.0 = at limit)
};

} // namespace sa::monitor
