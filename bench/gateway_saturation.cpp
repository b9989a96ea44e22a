// GW-SAT — the ROADMAP's multi-bus fan-out saturation bench: k buses chained
// by gateways inside each of n vehicles, every vehicle pumping object frames
// down its chain, plus V2V cooperative awareness coupling the vehicles.
//
// Two questions are measured:
//   1. Saturation: how does wall time scale with vehicles x buses x gateways
//      on one domain (domains:1)?
//   2. Sharding: with the same workload partitioned across ECU domains
//      (ScenarioBuilder::domains(n)), how does wall time scale with domain
//      count? Cross-domain coupling is the 20 ms V2V beacon latency — the
//      conservative lookahead — so each parallel window carries ~20 ms of
//      dense per-domain gateway traffic. Speedup tracks physical cores: on a
//      single-core host the sharded rows only add coordination overhead.
//
// BM_BridgedBackbone adds the adversarial variant: scenario-level bridges
// (cross-vehicle, cross-domain gateway routes at 100 us forward latency)
// shrink the lookahead window 200x, measuring what fine-grained cross-domain
// coupling costs the sharded kernel in barriers.
//
// Timing is manual (UseManualTime): scenario assembly is excluded, the
// parallel run() is what's measured, wall-clock.

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <string>

#include "scenario/scenario_builder.hpp"

using namespace sa;
using sim::Duration;
using sim::Time;

namespace {

constexpr std::uint32_t kObjectIdBase = 0x100;

std::string vehicle_name(int i) { return "veh" + std::to_string(i); }

void declare_fanout_vehicle(scenario::ScenarioBuilder& builder,
                            const std::string& name, int buses) {
    rte::RtTaskConfig obj_tx;
    obj_tx.name = "obj_tx";
    obj_tx.priority = 100;
    obj_tx.period = Duration::ms(1);
    obj_tx.wcet = Duration::us(100);
    obj_tx.bcet = obj_tx.wcet;
    obj_tx.randomize_exec = false;
    rte::RtTaskConfig sink;
    sink.name = "sink";
    sink.priority = 90;
    sink.period = Duration::zero(); // sporadic: released by the last hop
    sink.wcet = Duration::us(20);
    sink.randomize_exec = false;

    auto& vehicle = builder.vehicle(name);
    vehicle.ecu({"zone0", 1.0, 0.75, model::Asil::D, "front", "main"}, {1.0});
    // One gateway PER HOP (m = k-1 gateways): a single gateway cannot chain
    // hops, because the ingress filter of hop i+1 would sit on the very
    // controller that egressed hop i, and controllers do not receive their
    // own transmissions.
    for (int b = 0; b < buses; ++b) {
        vehicle.can_bus({"bus" + std::to_string(b), 500'000, 0.6});
        if (b > 0) {
            vehicle.can_gateway({"gw" + std::to_string(b - 1),
                                 {{"bus" + std::to_string(b - 1),
                                   "bus" + std::to_string(b), kObjectIdBase,
                                   0x700}},
                                 Duration::us(50)});
        }
    }
    vehicle.rt_task("zone0", obj_tx)
        .rt_task("zone0", sink)
        .can_tx_on_completion("zone0", "obj_tx", "bus0",
                              can::CanFrame::make(kObjectIdBase, {1, 2, 3, 4}))
        .can_rx_activation("zone0", "sink", "bus" + std::to_string(buses - 1),
                           kObjectIdBase, 0x700);
}

std::unique_ptr<scenario::Scenario> build_fanout(int vehicles, int buses,
                                                 std::size_t domains) {
    scenario::ScenarioBuilder builder(2027);
    builder.domains(domains).v2v({});
    for (int i = 0; i < vehicles; ++i) {
        declare_fanout_vehicle(builder, vehicle_name(i), buses);
    }
    auto scenario = builder.build();
    // Cooperative awareness: every vehicle beacons from its own domain.
    for (int i = 0; i < vehicles; ++i) {
        const std::string name = vehicle_name(i);
        scenario->v2v().attach(name, scenario->vehicle(name).simulator(),
                               [](const v2v::Frame&, double) {});
        scenario->vehicle(name).simulator().schedule_periodic(
            Duration::ms(100),
            [&v2v = scenario->v2v(), name] {
                v2v.transmit(v2v::Medium::cam(name, 0.0, 25.0));
            },
            Duration::ms(1 + i));
    }
    return scenario;
}

void BM_GatewaySaturation(benchmark::State& state) {
    const int vehicles = static_cast<int>(state.range(0));
    const int buses = static_cast<int>(state.range(1));
    const auto domains = static_cast<std::size_t>(state.range(2));
    std::uint64_t forwards = 0;
    std::uint64_t events = 0;
    std::uint64_t windows = 0;
    std::uint64_t cross = 0;
    for (auto _ : state) {
        auto scenario = build_fanout(vehicles, buses, domains);
        const auto start = std::chrono::steady_clock::now();
        scenario->run(Duration::ms(200), domains);
        const auto end = std::chrono::steady_clock::now();
        state.SetIterationTime(std::chrono::duration<double>(end - start).count());
        forwards = 0;
        for (int i = 0; i < vehicles; ++i) {
            auto& vehicle = scenario->vehicle(vehicle_name(i));
            for (int b = 0; b + 1 < buses; ++b) {
                forwards += vehicle.bus_gateway("gw" + std::to_string(b))
                                .frames_forwarded();
            }
        }
        events = scenario->kernel().executed_events();
        windows = scenario->kernel().windows();
        cross = scenario->kernel().cross_domain_events();
    }
    state.counters["frames_forwarded"] = static_cast<double>(forwards);
    state.counters["events"] = static_cast<double>(events);
    state.counters["windows"] = static_cast<double>(windows);
    state.counters["cross_domain_events"] = static_cast<double>(cross);
}
BENCHMARK(BM_GatewaySaturation)
    ->ArgNames({"vehicles", "buses", "domains"})
    // Saturation scaling on one domain.
    ->Args({4, 3, 1})
    ->Args({8, 3, 1})
    ->Args({16, 3, 1})
    ->Args({8, 5, 1})
    // Domain scaling of the same workload (speedup tracks physical cores).
    ->Args({8, 3, 2})
    ->Args({8, 3, 4})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

std::unique_ptr<scenario::Scenario> build_backbone(int vehicles,
                                                   std::size_t domains) {
    scenario::ScenarioBuilder builder(2028);
    builder.domains(domains);
    for (int i = 0; i < vehicles; ++i) {
        rte::RtTaskConfig obj_tx;
        obj_tx.name = "obj_tx";
        obj_tx.priority = 100;
        obj_tx.period = Duration::ms(2);
        obj_tx.wcet = Duration::us(100);
        obj_tx.bcet = obj_tx.wcet;
        obj_tx.randomize_exec = false;
        const auto id = static_cast<std::uint32_t>(kObjectIdBase + i);
        builder.vehicle(vehicle_name(i))
            .ecu({"zone0", 1.0, 0.75, model::Asil::D, "front", "main"}, {1.0})
            .can_bus({"backbone", 500'000, 0.6})
            .rt_task("zone0", obj_tx)
            .can_tx_on_completion("zone0", "obj_tx", "backbone",
                                  can::CanFrame::make(id, {1, 2, 3, 4}));
    }
    // Ring of scenario-level bridges: vehicle i's frames hop (exactly once,
    // the id filter stops loops) onto vehicle i+1's backbone. Under sharding
    // these are cross-domain routes: each ingress domain's lookahead drops
    // to the 100 us forward latency.
    for (int i = 0; i < vehicles; ++i) {
        const int next = (i + 1) % vehicles;
        scenario::BridgeSpec bridge;
        bridge.name = "bridge" + std::to_string(i);
        bridge.forward_latency = Duration::us(100);
        bridge.routes.push_back({vehicle_name(i), "backbone", vehicle_name(next),
                                 "backbone",
                                 static_cast<std::uint32_t>(kObjectIdBase + i),
                                 0x7FF});
        builder.bridge(bridge);
    }
    return builder.build();
}

void BM_BridgedBackbone(benchmark::State& state) {
    const int vehicles = static_cast<int>(state.range(0));
    const auto domains = static_cast<std::size_t>(state.range(1));
    std::uint64_t forwards = 0;
    std::uint64_t windows = 0;
    for (auto _ : state) {
        auto scenario = build_backbone(vehicles, domains);
        const auto start = std::chrono::steady_clock::now();
        scenario->run(Duration::ms(100), domains);
        const auto end = std::chrono::steady_clock::now();
        state.SetIterationTime(std::chrono::duration<double>(end - start).count());
        forwards = 0;
        for (int i = 0; i < vehicles; ++i) {
            forwards += scenario->bridge("bridge" + std::to_string(i))
                            .frames_forwarded();
        }
        windows = scenario->kernel().windows();
    }
    state.counters["frames_forwarded"] = static_cast<double>(forwards);
    state.counters["windows"] = static_cast<double>(windows);
}
BENCHMARK(BM_BridgedBackbone)
    ->ArgNames({"vehicles", "domains"})
    ->Args({8, 1})
    ->Args({8, 2})
    ->Args({8, 4})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

} // namespace
