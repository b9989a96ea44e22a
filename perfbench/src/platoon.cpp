// platoon-dual-bus: eight dual-bus platoon_follow vehicles on the
// single-queue kernel. Each vehicle has a learned anomaly monitor and a
// plain V2V endpoint with a 100 ms CAM beacon, and a message-storm fault
// hits the vehicles in turn at staggered, off-grid, seeded times. CAN
// arbitration and the gateway, RTE scheduling, the rate IDS, the learned
// models and the coordinator carry the work.

#include <cstdio>
#include <string>
#include <vector>

#include "scenario/presets.hpp"
#include "scenario_op.hpp"

namespace perfbench {
namespace {

namespace sc = sa::scenario;
using sa::sim::Duration;

constexpr std::size_t kVehicles = 8;
constexpr Duration kDuration = Duration::sec(60);

std::string vehicle_name(std::size_t i) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "p%zu", i);
    return buf;
}

struct PlatoonVariant {
    std::size_t domains = 1;
    bool learned = true;
    bool beacons = true;
};

ScenarioHooks platoon_declaration(std::uint64_t seed, PlatoonVariant variant) {
    ScenarioHooks hooks;
    hooks.buses = {"can_sense", "can_act"};
    hooks.declare = [seed, variant](sc::ScenarioBuilder& builder) {
        sa::v2v::MediumConfig medium;
        medium.loss_probability = 0.0;
        medium.latency = Duration::ms(20);
        medium.seed = seed;
        builder.v2v(medium);
        for (std::size_t i = 0; i < kVehicles; ++i) {
            const std::string name = vehicle_name(i);
            sc::presets::declare_platoon_follow_vehicle(builder, name);
            sc::VehicleBuilder& vehicle = builder.vehicle(name);
            vehicle.v2v(25.0 * static_cast<double>(i));
            if (variant.learned) {
                sa::learn::LearnedMonitorConfig learned;
                learned.seed = seed;
                vehicle.learned_monitor(learned);
            }
            // Vehicle i is stormed from 4 s + 7 s * i plus a seeded offset
            // below 10 ms, on an odd microsecond (off the task grid). The
            // offset changes the outputs but barely the amount of work.
            const auto storm_at =
                Duration::sec(4 + 7 * static_cast<std::int64_t>(i)) +
                Duration::us(17 + 2 * static_cast<std::int64_t>(mix(seed * 100 + i) % 5'000));
            builder.at(storm_at, [name](sc::Scenario& scenario) {
                sc::Vehicle& target = scenario.vehicle(name);
                target.rte().access().grant("perception", "brake_cmd");
                target.faults().compromise_with_message_storm("perception", "brake_cmd",
                                                              Duration::ms(2));
            });
        }
    };
    return hooks;
}

OpRecord platoon_op(std::uint64_t seed, PlatoonVariant variant, bool traced,
                    Spans& spans, std::uint64_t op) {
    std::vector<Beacon> beacons(kVehicles);
    ScenarioHooks hooks = platoon_declaration(seed, variant);
    hooks.prepare = [&, seed](sc::Scenario& scenario) {
        if (!variant.beacons) {
            return;
        }
        for (std::size_t i = 0; i < kVehicles; ++i) {
            Beacon& beacon = beacons[i];
            beacon.medium = &scenario.v2v();
            beacon.name = vehicle_name(i);
            beacon.position_m = 25.0 * static_cast<double>(i);
            beacon.timed = traced;
            (void)scenario.vehicle(beacon.name)
                .simulator()
                .schedule_periodic(kBeaconPeriod, [b = &beacon] { b->fire(); },
                                   beacon_phase(seed, i));
        }
    };
    hooks.collect = [&](sc::Scenario& scenario, OpRecord& record) {
        const sc::ScenarioReport report = scenario.report();
        std::vector<std::uint64_t> jobs;
        std::vector<std::uint64_t> misses;
        std::vector<std::uint64_t> anomalies;
        std::vector<std::uint64_t> frames;
        std::vector<std::uint64_t> forwarded;
        std::vector<double> follow;
        for (const sc::VehicleReport& slice : report.vehicles) {
            sc::Vehicle& vehicle = scenario.vehicle(slice.name);
            jobs.push_back(slice.jobs_completed);
            misses.push_back(slice.deadline_misses);
            anomalies.push_back(slice.anomalies);
            frames.push_back(vehicle.rte().can_bus("can_sense").frames_transmitted() +
                             vehicle.rte().can_bus("can_act").frames_transmitted());
            forwarded.push_back(vehicle.bus_gateway("gw").frames_forwarded());
            follow.push_back(vehicle.abilities().level(vehicle.root_skill()));
        }
        record.outputs.counts("jobs", jobs)
            .counts("misses", misses)
            .counts("anomalies", anomalies)
            .counts("can_frames", frames)
            .counts("gateway_forwarded", forwarded)
            .nums("follow_level", follow);
        add_transmit_timing(beacons, record);
    };
    return run_scenario_op(seed, variant.domains, kDuration, hooks, traced, spans, op);
}

} // namespace

std::string run_platoon(const Options& options) {
    Spans spans(options.trace);
    std::vector<std::string> warm_up;
    std::vector<std::string> ops;
    {
        // Each operation runs on the next CPU in turn. On a shared VM one
        // vCPU ran this single-threaded workload up to twice as slowly as
        // another for tens of seconds; left alone the scheduler kept the
        // thread there, and the whole run read slow.
        CpuRotation rotation;
        repeat_for(kWarmUpSeconds, 1, [&](std::size_t i) {
            rotation.next();
            warm_up.push_back(platoon_op(options.seed, {}, false, spans, i).json());
        });
        repeat_for(options.seconds, options.trace ? 4 : 3, [&](std::size_t i) {
            rotation.next();
            const bool traced = options.trace && i % 2 == 1;
            ops.push_back(gauged(1, [&] {
                              return platoon_op(options.seed, {}, traced, spans, i);
                          }).json());
        });
    }

    std::uint64_t next = ops.size();
    const std::string reference =
        platoon_op(options.seed, {2, true, true}, false, spans, next++).json();
    const std::string alt_seed = platoon_op(options.seed + 1, {}, false, spans, next++).json();
    // Read before the record is serialized, which the benchmark adds.
    const std::uint64_t peak_kb = peak_rss_kb();
    const SetupSamples setups =
        extra_setups(options.seed, 1, platoon_declaration(options.seed, {}), kExtraSetups);
    Json record;
    record.str("workload", "platoon-dual-bus")
        .count("peak_rss_kb", peak_kb)
        .raw("warm_up", json_array(warm_up))
        .raw("ops", json_array(ops))
        .nums("extra_setup_s", setups.setup_s)
        .nums("extra_setup_gauge_s", setups.gauge_wall_s)
        .raw("reference", reference)
        .raw("alt_seed", alt_seed);
    if (options.trace) {
        // Each variant is compared with plain operations from the same
        // rounds, so a change in host speed during the run cancels out.
        std::vector<std::string> round_base;
        std::vector<std::string> two_domains;
        std::vector<std::string> no_learned;
        std::vector<std::string> no_beacons;
        for (std::size_t k = 0; k < 3 * kVariantRounds; ++k) {
            round_base.push_back(platoon_op(options.seed, {}, false, spans, next++).json());
            two_domains.push_back(
                platoon_op(options.seed, {2, true, true}, false, spans, next++).json());
            no_learned.push_back(
                platoon_op(options.seed, {1, false, true}, false, spans, next++).json());
            no_beacons.push_back(
                platoon_op(options.seed, {1, true, false}, false, spans, next++).json());
        }
        record.raw("round_base", json_array(round_base))
            .raw("two_domains", json_array(two_domains))
            .raw("no_learned", json_array(no_learned))
            .raw("no_beacons", json_array(no_beacons))
            .raw("campaign_sample", campaign_sample(options, spans, next));
    }
    if (options.trace && !spans.write(options.trace_out)) {
        throw std::runtime_error("cannot write trace file " + options.trace_out);
    }
    return record.done();
}

} // namespace perfbench
