#pragma once
// Metrics and anomaly records shared by all monitors. Metrics flow from the
// execution domain back into the model domain (Fig. 1 "metrics" arrow);
// anomalies feed the cross-layer coordinator (§V).

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

/// A time-stamped scalar observation ("execution times, access patterns, or
/// sensor values", §II-B).
struct Metric {
    std::string name;
    double value = 0.0;
    sim::Time at;
};

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
