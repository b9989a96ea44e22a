// FLEET — fleet-scale sweep of the sharded kernel: 8, 32 and 128 light
// vehicles at 1, 2 and 4 ECU domains. Where bench/sharded_kernel.cpp runs
// the heavy dual-bus platoon preset on three vehicles, this sweep holds the
// per-vehicle workload deliberately small (one ECU, two periodic RTE tasks,
// a 100 ms CAM beacon on the shared V2V medium) and scales the vehicle
// count instead — the axis the arena/pool memory layout is built for. In
// steady state the kernel's hot structures (event-queue buckets, periodic
// slots, interned metrics) are recycled, and a transmit posts one fan-out
// event per home domain carrying a pooled payload, so the sweep shows
// whether throughput stays linear in fleet size or the kernel drowns in
// allocator traffic. Each beacon runs on its own vehicle's domain, so
// under sharding the transmits spread over every domain worker.
//
// Timing is manual (UseManualTime): assembly of N vehicles is excluded,
// run() wall time only. Counters report the executed-event totals so the
// sharded rows can be checked for workload identity across domain counts.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>

#include "scenario/scenario_builder.hpp"

using namespace sa;
using sim::Duration;
using sim::Time;

namespace {

std::string vehicle_name(int i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "v%03d", i % 1000);
    return buf;
}

// One light vehicle: a single zone ECU with a 10 ms sense task and a 5 ms
// fuse task (fixed execution times — the sweep measures the kernel, not the
// scheduler's RNG), attached to the V2V medium as a plain endpoint.
void declare_light_vehicle(scenario::ScenarioBuilder& builder,
                           const std::string& name) {
    rte::RtTaskConfig sense;
    sense.name = "sense";
    sense.priority = 1;
    sense.period = Duration::ms(10);
    sense.wcet = Duration::us(200);
    sense.bcet = sense.wcet;
    sense.randomize_exec = false;

    rte::RtTaskConfig fuse;
    fuse.name = "fuse";
    fuse.priority = 2;
    fuse.period = Duration::ms(5);
    fuse.wcet = Duration::us(300);
    fuse.bcet = fuse.wcet;
    fuse.randomize_exec = false;

    builder.vehicle(name)
        .ecu({"zone", 1.0, 0.75, model::Asil::D, "cabin", "main"}, {1.0})
        .rt_task("zone", sense)
        .rt_task("zone", fuse)
        .v2v(0.0);
}

void BM_FleetSweep(benchmark::State& state) {
    const auto vehicles = static_cast<int>(state.range(0));
    const auto domains = static_cast<std::size_t>(state.range(1));
    std::uint64_t events = 0;
    std::uint64_t windows = 0;
    std::uint64_t cross = 0;
    std::uint64_t deliveries = 0;
    for (auto _ : state) {
        scenario::ScenarioBuilder builder(2026);
        builder.domains(domains).v2v({});
        for (int i = 0; i < vehicles; ++i) {
            declare_light_vehicle(builder, vehicle_name(i));
        }
        auto scenario = builder.build();
        // Staggered 100 ms CAM beacons: every vehicle announces itself to
        // the whole fleet, so one transmit fans out to N-1 deliveries.
        for (int i = 0; i < vehicles; ++i) {
            const std::string name = vehicle_name(i);
            scenario->vehicle(name).simulator().schedule_periodic(
                Duration::ms(100),
                [&v2v = scenario->v2v(), name] {
                    v2v.transmit(v2v::Medium::cam(name, 0.0, 22.0));
                },
                Duration::us(500 * (i + 1)));
        }

        const auto start = std::chrono::steady_clock::now();
        scenario->run(Duration::ms(200), domains);
        const auto end = std::chrono::steady_clock::now();
        state.SetIterationTime(std::chrono::duration<double>(end - start).count());

        events = scenario->kernel().executed_events();
        windows = scenario->kernel().windows();
        cross = scenario->kernel().cross_domain_events();
        deliveries = scenario->v2v().deliveries();
    }
    state.counters["events"] = static_cast<double>(events);
    state.counters["windows"] = static_cast<double>(windows);
    state.counters["cross_domain_events"] = static_cast<double>(cross);
    state.counters["v2v_deliveries"] = static_cast<double>(deliveries);
    state.counters["events_per_vehicle"] =
        static_cast<double>(events) / static_cast<double>(vehicles);
}
BENCHMARK(BM_FleetSweep)
    ->ArgNames({"vehicles", "domains"})
    ->ArgsProduct({{8, 32, 128}, {1, 2, 4}})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

} // namespace
