// fleet-v2v: 128 light vehicles (one zone ECU, fixed-time 10 ms + 5 ms RTE
// tasks) on four ECU domains, each broadcasting a staggered 100 ms CAM
// beacon on a zero-loss medium with 20 ms latency. Every beacon is
// scheduled on its vehicle's home domain, so the transmits run on all four
// domain workers. V2V fan-out (127 deliveries per transmit) and the sharded
// kernel's mailboxes and merge carry the work.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "scenario_op.hpp"

namespace perfbench {
namespace {

namespace sc = sa::scenario;
using sa::sim::Duration;

constexpr std::size_t kVehicles = 128;
constexpr std::size_t kDomains = 4;
constexpr Duration kDuration = Duration::sec(10);
constexpr Duration kSensePeriod = Duration::ms(10);
constexpr Duration kFusePeriod = Duration::ms(5);

std::string vehicle_name(std::size_t i) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "v%03zu", i);
    return buf;
}

void declare_light_vehicle(sc::ScenarioBuilder& builder, const std::string& name) {
    sa::rte::RtTaskConfig sense;
    sense.name = "sense";
    sense.priority = 1;
    sense.period = kSensePeriod;
    sense.wcet = Duration::us(200);
    sense.bcet = sense.wcet;
    sense.randomize_exec = false;

    sa::rte::RtTaskConfig fuse;
    fuse.name = "fuse";
    fuse.priority = 2;
    fuse.period = kFusePeriod;
    fuse.wcet = Duration::us(300);
    fuse.bcet = fuse.wcet;
    fuse.randomize_exec = false;

    builder.vehicle(name)
        .ecu({"zone", 1.0, 0.75, sa::model::Asil::D, "cabin", "main"}, {1.0})
        .rt_task("zone", sense)
        .rt_task("zone", fuse);
}

struct FleetVariant {
    std::size_t domains = kDomains;
    bool beacons = true;
};

ScenarioHooks fleet_declaration(std::uint64_t seed) {
    ScenarioHooks hooks;
    hooks.declare = [seed](sc::ScenarioBuilder& builder) {
        sa::v2v::MediumConfig medium;
        medium.loss_probability = 0.0;
        medium.latency = Duration::ms(20);
        medium.seed = seed;
        builder.v2v(medium);
        for (std::size_t i = 0; i < kVehicles; ++i) {
            declare_light_vehicle(builder, vehicle_name(i));
        }
    };
    return hooks;
}

OpRecord fleet_op(std::uint64_t seed, FleetVariant variant, bool traced, Spans& spans,
                  std::uint64_t op) {
    std::vector<Beacon> beacons(kVehicles);
    ScenarioHooks hooks = fleet_declaration(seed);
    hooks.prepare = [&, seed](sc::Scenario& scenario) {
        for (std::size_t i = 0; i < kVehicles; ++i) {
            Beacon& beacon = beacons[i];
            beacon.medium = &scenario.v2v();
            beacon.name = vehicle_name(i);
            beacon.position_m = 10.0 * static_cast<double>(i);
            beacon.timed = traced;
            sa::sim::Simulator& home = scenario.vehicle(beacon.name).simulator();
            scenario.v2v().attach(
                beacon.name, home,
                [&beacon](const sa::v2v::Frame& frame, double) { beacon.receive(frame); },
                beacon.position_m);
            if (!variant.beacons) {
                continue;
            }
            (void)home.schedule_periodic(
                kBeaconPeriod, [b = &beacon] { b->fire(); }, beacon_phase(seed, i));
        }
    };
    hooks.collect = [&](sc::Scenario& scenario, OpRecord& record) {
        std::vector<std::uint64_t> jobs;
        std::vector<std::uint64_t> received;
        std::vector<std::uint64_t> digests;
        for (const Beacon& beacon : beacons) {
            jobs.push_back(scenario.vehicle(beacon.name).rte().total_completed_jobs());
            received.push_back(beacon.received);
            digests.push_back(beacon.digest);
        }
        record.outputs.counts("jobs", jobs)
            .counts("received", received)
            .counts("digest", digests)
            .count("transmissions", scenario.v2v().transmissions())
            .count("deliveries", scenario.v2v().deliveries())
            .count("losses", scenario.v2v().losses());
        add_transmit_timing(beacons, record);
    };
    return run_scenario_op(seed, variant.domains, kDuration, hooks, traced, spans, op);
}

} // namespace

std::string run_fleet(const Options& options) {
    Spans spans(options.trace);
    std::vector<std::string> warm_up;
    repeat_for(kWarmUpSeconds, 1, [&](std::size_t i) {
        warm_up.push_back(fleet_op(options.seed, {}, false, spans, i).json());
    });
    std::vector<std::string> ops;
    // Untraced mode measures back-to-back operations. Trace mode alternates
    // untraced and traced operations so bench.trace_overhead compares the
    // two under the same host conditions.
    repeat_for(options.seconds, options.trace ? 4 : 3, [&](std::size_t i) {
        const bool traced = options.trace && i % 2 == 1;
        ops.push_back(gauged(kDomains, [&] {
                          return fleet_op(options.seed, {}, traced, spans, i);
                      }).json());
    });

    // Read before the record is serialized, which the benchmark adds.
    const std::uint64_t peak_kb = peak_rss_kb();
    const SetupSamples setups =
        extra_setups(options.seed, kDomains, fleet_declaration(options.seed), kExtraSetups);

    // Once per invocation, outside the timed window: the single-queue
    // reference the outputs must equal, and the neighbouring seed whose
    // outputs must differ.
    Json record;
    record.str("workload", "fleet-v2v")
        .count("peak_rss_kb", peak_kb)
        .count("vehicles", kVehicles)
        .count("expected_jobs_per_vehicle",
               static_cast<std::uint64_t>(kDuration.count_ns() / kSensePeriod.count_ns() +
                                          kDuration.count_ns() / kFusePeriod.count_ns()))
        .raw("warm_up", json_array(warm_up))
        .raw("ops", json_array(ops))
        .nums("extra_setup_s", setups.setup_s)
        .nums("extra_setup_gauge_s", setups.gauge_wall_s)
        .raw("reference",
             fleet_op(options.seed, {1, true}, options.trace, spans, ops.size()).json())
        .raw("alt_seed",
             fleet_op(options.seed + 1, {1, true}, false, spans, ops.size() + 1).json());
    if (options.trace) {
        // Each variant is compared with plain operations from the same
        // rounds, so a change in host speed during the run cancels out.
        std::vector<std::string> round_base;
        std::vector<std::string> one_domain;
        std::vector<std::string> no_beacons;
        std::uint64_t next = ops.size() + 2;
        for (std::size_t k = 0; k < kVariantRounds; ++k) {
            round_base.push_back(fleet_op(options.seed, {}, false, spans, next++).json());
            one_domain.push_back(fleet_op(options.seed, {1, true}, false, spans, next++).json());
            no_beacons.push_back(
                fleet_op(options.seed, {kDomains, false}, false, spans, next++).json());
        }
        record.raw("round_base", json_array(round_base))
            .raw("one_domain", json_array(one_domain))
            .raw("no_beacons", json_array(no_beacons))
            .raw("campaign_sample", campaign_sample(options, spans, next));
    }
    if (options.trace && !spans.write(options.trace_out)) {
        throw std::runtime_error("cannot write trace file " + options.trace_out);
    }
    return record.done();
}

} // namespace perfbench
