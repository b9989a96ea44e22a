#pragma once
// Canonical scenario presets: vehicle shapes shared between the test suites
// and the benchmarks, so the workload a bench measures is byte-identical to
// the workload the determinism/regression tests lock in. The flagship
// preset follows the dual-bus zonal shape of examples/platoon_dual_bus.cpp
// (sensor zone -> gateway -> actuation zone) minus the example's acc_app
// application component, which rides on the services but adds nothing to
// the CAN chain the sharded suites measure.
//
// The drift scenario below is the learned monitor's payoff: one declaration
// shared by examples/learned_drift.cpp, the learn tests and the sa_learn
// CLI, so "the drift scenario" means the same scenario everywhere.

#include <cstdint>
#include <string>

#include "learn/anomaly_model_monitor.hpp"
#include "scenario/scenario_builder.hpp"

namespace sa::scenario::presets {

/// CAN id of the object frames crossing the dual-bus vehicle's gateway.
inline constexpr std::uint32_t kDualBusObjectFrameId = 0x120;

/// Declare one dual-bus zonal vehicle on `builder`: two ECU zones on
/// separate CAN buses joined by a store-and-forward gateway, a raw
/// object-TX / brake-activation chain across the gateway, perception and
/// brake-control contracts, rate IDS, the ACC skill graph, the full layer
/// stack and a 500 ms self-model. Deterministic: no task randomises its
/// execution time and no bus has a non-zero error rate, so runs reproduce
/// bit-for-bit from a seed (the sharded determinism suite depends on this).
void declare_dual_bus_platoon_vehicle(ScenarioBuilder& builder,
                                      const std::string& name);

/// Maneuver-scenario variant: the same deterministic dual-bus platform, but
/// running the registry's platoon_follow skill graph with the unified
/// degradation policy instead of the ACC graph. The follow skill degrades
/// through capability downgrades (fog scripts, sensor faults), which is what
/// the automatic join/leave/split maneuvers key on — shared by the sharded
/// determinism suite and bench/skill_graph_sweep.cpp so they measure one
/// workload.
void declare_platoon_follow_vehicle(ScenarioBuilder& builder,
                                    const std::string& name);

/// An ACC vehicle whose radar develops a slow calibration drift. The bias
/// rides inside every valid sample, so availability, validity and noise
/// variance never change — no threshold monitor (sensor quality, range,
/// rate) ever reacts — but the fused gap the controller regulates and the
/// raw sensor streams slowly pull apart, and the learned monitor's
/// joint-state model lands in a state it has never seen. Its
/// learned_abnormality alarm flows through the degradation policy and caps
/// the radar capability, degrading acc_driving like any hand-written alarm
/// would.
struct DriftDemoConfig {
    std::uint64_t seed = 7;
    std::size_t domains = 1;
    /// Intended run length (also the builder's duration_hint()).
    sim::Duration duration = sim::Duration::sec(40);
    /// Learned-monitor warm-up (training window before scoring). Generous:
    /// the per-metric baselines freeze after ~3.2s, but the closed ACC loop
    /// wanders slowly (~10s excursions of a few decimetres) around its
    /// noise-shifted equilibrium, and the state model must see several full
    /// wander cycles — otherwise the first post-gate excursion rediscovers
    /// an ordinary state as "new" and alarms on nothing.
    sim::Duration warmup = sim::Duration::sec(30);
    /// First bias step; the ramp must start after the warm-up.
    sim::Duration drift_start = sim::Duration::sec(32);
    sim::Duration drift_step_period = sim::Duration::ms(400);
    int drift_steps = 12;
    double drift_step_m = 0.5; ///< radar bias added per step
    /// Surprise (bits) that raises the alarm. Sits between the rarest
    /// normal corner state (~7 bits: a ~1%-frequency excursion) and a
    /// never-seen state late in the run (log2(evaluations) ~ 9+ bits).
    double score_threshold = 8.0;
    /// Band width in drift-z units. The closed ACC loop wanders slowly
    /// around its equilibrium — the EWMA of a clean metric reaches z ~ 1.0
    /// of the frozen baseline late in a 40s run — so the first band flip is
    /// placed at z = 1.5: outside the clean envelope with margin, well
    /// inside the ±2.2 sigma the radar/camera disagreement reaches when the
    /// calibration actually walks.
    double band_width = 3.0;
    /// Radar capability level imposed by the learned_abnormality rule.
    double degraded_radar_level = 0.3;
};

/// The exact learned-monitor configuration the drift scenario installs —
/// shared with sa_learn's offline fit/score so offline verdicts mirror the
/// in-sim monitor.
[[nodiscard]] learn::LearnedMonitorConfig drift_demo_model(const DriftDemoConfig& config);

/// Configure `builder` with the drift scenario: vehicle "ego" (ACC driving
/// loop, radar + camera with quality monitors, the §IV ACC skill graph, a
/// degradation policy mapping learned_abnormality onto the radar capability,
/// and a learned monitor), plus the scripted stepwise radar bias ramp.
/// The builder's seed is NOT touched — construct it with config.seed.
void declare_drift_demo(ScenarioBuilder& builder, const DriftDemoConfig& config = {});

/// A fresh builder seeded with config.seed and declared via
/// declare_drift_demo().
[[nodiscard]] ScenarioBuilder make_drift_demo(const DriftDemoConfig& config = {});

} // namespace sa::scenario::presets
