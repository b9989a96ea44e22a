#pragma once
// Scenario-layer lint rules (SCN001-SCN007): topology checks the builders
// cannot express as single-call preconditions — route shadowing and
// forwarding cycles span declarations, domain/latency interactions span
// vehicles, and monitor targets span subsystems. ScenarioBuilder::lint()
// feeds its declared state in here before build() commits anything to a
// simulator.

#include "lint/diagnostics.hpp"
#include "lint/scenario_shape.hpp"

namespace sa::lint {

/// Lint the whole topology: each vehicle's ECU/bus references (SCN005),
/// route shadowing within its gateways (SCN001), heartbeat targets (SCN006)
/// and sensor-to-skill bindings (SCN007); then domain pins (SCN004),
/// cross-domain latency (SCN003), bridge references (SCN005) and
/// bus-to-bus forwarding cycles across gateways and bridges (SCN002).
[[nodiscard]] LintReport lint_scenario(const ScenarioShape& scenario);

} // namespace sa::lint
