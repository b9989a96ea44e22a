#pragma once
// Cell execution: turn one CellConfig into a composed Scenario (the
// canonical platoon_follow preset under the cell's weather/fault/policy/
// topology axes), run it for the cell's duration, and distil the outcome
// into a CellVerdict. Everything here is deterministic in the cell alone:
// two processes running the same cell produce byte-identical verdict JSON,
// and so do runs at different domain counts (the verdict deliberately
// omits partitioning detail).

#include <string>
#include <vector>

#include "campaign/campaign_spec.hpp"
#include "campaign/verdict.hpp"
#include "platoon/platoon.hpp"
#include "scenario/scenario_builder.hpp"

namespace sa::campaign {

/// Vehicle names of a campaign cell, in convoy/declaration order
/// ("alpha", "beta", ... — CellConfig::vehicles picks a prefix, [2, 8]).
[[nodiscard]] std::vector<std::string> cell_vehicle_names(std::size_t vehicles);

/// The ManeuverPolicy preset behind a PolicyKind axis value. Check periods
/// are off-grid primes (247/103/251 ms); the corpus fingerprints were
/// recorded with them.
[[nodiscard]] platoon::ManeuverPolicy maneuver_policy_for(PolicyKind kind);

/// Declare the cell's full scenario on `builder` (vehicles, trust,
/// candidates, maneuver engine, weather/fault scripts, bridge topology).
/// `builder` must have been constructed with the cell's seed. Throws
/// util::ParseError (line 0) when the cell names a spec file that cannot be
/// read or parsed.
void declare_cell_scenario(scenario::ScenarioBuilder& builder,
                           const CellConfig& cell);

/// True when running this cell in-process could take the process down
/// (the Crash harness probe) — the driver refuses such cells outside
/// worker-process mode.
[[nodiscard]] bool cell_may_crash_process(const CellConfig& cell) noexcept;

/// Build and run one cell, capturing violations as a "violation" verdict
/// (with the partial scenario report) instead of propagating. Never
/// returns status "crash" — that verdict is synthesized by the driver when
/// a *worker process* dies.
[[nodiscard]] CellVerdict run_cell(const CellConfig& cell);

} // namespace sa::campaign
