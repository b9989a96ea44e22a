#pragma once
// One benchmark operation on the scenario API: declare a scenario on a
// fresh ScenarioBuilder, build it, run it, read every layer's public
// counters and tear it down — timing each step. Shared by the fleet and
// platoon workloads and by the campaign workload's in-process cells.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "probe.hpp"
#include "scenario/scenario_builder.hpp"

namespace perfbench {

/// Public counters of every layer, summed over the scenario's vehicles.
struct LayerCounters {
    std::uint64_t can_frames = 0;
    std::uint64_t can_arbitration_rounds = 0;
    std::uint64_t can_controller_polls = 0;
    std::uint64_t can_gateway_forwarded = 0;
    std::uint64_t rte_jobs = 0;
    std::uint64_t rte_deadline_misses = 0;
    std::uint64_t monitor_checks = 0;
    std::uint64_t monitor_anomalies = 0;
    std::uint64_t learn_evaluations = 0;
    std::uint64_t core_problems_handled = 0;
    std::uint64_t platoon_maneuvers = 0;
    std::uint64_t mesh_transmissions = 0;
    std::uint64_t mesh_deliveries = 0;
    std::uint64_t mesh_losses = 0;
    std::uint64_t mesh_relays = 0;
};

/// Timings and counters of one operation. Times are seconds.
struct OpRecord {
    bool traced = false;
    std::size_t domains = 1;
    double declare_s = 0.0;
    double lint_s = 0.0;      ///< traced only: ScenarioBuilder::lint()
    double build_s = 0.0;
    double propagate_s = 0.0; ///< traced only: one propagate() per vehicle
    std::uint64_t propagate_calls = 0;
    double run_wall_s = 0.0;
    double run_cpu_s = 0.0;
    double op_wall_s = 0.0;
    double op_cpu_s = 0.0;
    double sim_s = 0.0;
    std::uint64_t events = 0;
    std::uint64_t windows = 0;
    std::uint64_t cross_domain_events = 0;
    std::uint64_t context_switches = 0;
    std::uint64_t allocations = 0; ///< traced binary only; calling thread only
    GaugeReading gauge;            ///< mean host gauge around the operation (gauged())
    std::string violation;         ///< non-empty when build() or run() threw
    LayerCounters layers;
    Json outputs;                  ///< workload-specific model outputs
    Json extra;                    ///< workload-specific traced measurements

    [[nodiscard]] double setup_s() const noexcept { return declare_s + build_s; }
    [[nodiscard]] std::string json() const;
};

struct ScenarioHooks {
    /// Builder calls (the builder is constructed with the workload seed).
    std::function<void(sa::scenario::ScenarioBuilder&)> declare;
    /// After build(), before run(): beacons, probes.
    std::function<void(sa::scenario::Scenario&)> prepare;
    /// After run(): fill the record's outputs.
    std::function<void(sa::scenario::Scenario&, OpRecord&)> collect;
    /// CAN buses every vehicle declares (read for the can.* counters).
    std::vector<std::string> buses;
};

/// Run one operation. With `traced`, lint and propagate are timed too, the
/// run counts allocations on the calling thread, and spans are recorded.
[[nodiscard]] OpRecord run_scenario_op(std::uint64_t seed, std::size_t domains,
                                       sa::sim::Duration duration,
                                       const ScenarioHooks& hooks, bool traced,
                                       Spans& spans, std::uint64_t op);

/// Runs `op` between two gauge_host(threads) readings and keeps their mean
/// in the record, so the operation's cost can be related to the host's
/// speed at that moment.
[[nodiscard]] OpRecord gauged(std::size_t threads, const std::function<OpRecord()>& op);

/// Extra set-ups per invocation (see extra_setups()).
inline constexpr std::size_t kExtraSetups = 40;

/// Set-up times and the single-thread gauge readings around each.
struct SetupSamples {
    std::vector<double> setup_s;
    std::vector<double> gauge_wall_s;
};

/// Set-up time (declare + build) of `count` scenarios that are built and
/// torn down without running: set-up takes about a millisecond, so its
/// median needs more samples than the timed operations give. Each set-up
/// runs on the next CPU in turn, between two gauge readings on that CPU.
[[nodiscard]] SetupSamples extra_setups(std::uint64_t seed, std::size_t domains,
                                        const ScenarioHooks& hooks, std::size_t count);

/// First firing of vehicle i's beacon: a fixed 500 us stagger plus a seeded
/// jitter below 100 us, on an odd microsecond so no beacon shares a
/// timestamp with the tasks' 5 ms grid. The jitter changes every received
/// frame's timestamp (the outputs) while the amount of work stays put.
[[nodiscard]] sa::sim::Duration beacon_phase(std::uint64_t seed, std::size_t i);

/// Period of every benchmark CAM beacon.
inline constexpr sa::sim::Duration kBeaconPeriod = sa::sim::Duration::ms(100);

/// One vehicle's CAM beacon and receiver state. The beacon is scheduled on
/// the vehicle's home domain and the medium delivers to that same domain,
/// so each Beacon is touched by one thread only: no shared lock, and the
/// per-vehicle transmit-time accumulators are summed after the run.
struct Beacon {
    sa::v2v::Medium* medium = nullptr;
    std::string name;
    double position_m = 0.0;
    bool timed = false;
    double transmit_s = 0.0;
    std::uint64_t transmits = 0;
    std::uint64_t received = 0;
    std::uint64_t digest = 0; ///< order-independent digest of received CAMs

    void fire();
    void receive(const sa::v2v::Frame& frame);
};

/// Sum of the beacons' transmit timings, as the record's extra fields
/// transmit_s and transmits.
void add_transmit_timing(const std::vector<Beacon>& beacons, OpRecord& record);

/// Wall time of untimed operations at the start of every driver process.
/// On a 4-vCPU VM the first second or so of a fresh process ran the
/// sharded kernel's four workers as if on one core (CPU time = wall time,
/// a fifteenth of the context switches), after which the scheduler spread
/// them; timing that transient made fleet-v2v bimodal from run to run. The
/// warm-up operations are still checked.
inline constexpr double kWarmUpSeconds = 1.5;

/// Rounds of variant operations in a traced fleet run (platoon operations
/// are a sixth as long and run three times as many).
inline constexpr std::size_t kVariantRounds = 3;

/// Repeat `body(index)` until `seconds` of wall time have passed and at
/// least `min_ops` operations ran.
void repeat_for(double seconds, std::size_t min_ops,
                const std::function<void(std::size_t)>& body);

} // namespace perfbench
