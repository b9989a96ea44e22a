// MESH — the multi-hop V2V mesh under load, and its route convergence.
//
// BM_MeshSaturation: a chain of N mesh stacks at 120 m spacing under a
// 150 m radio (only adjacent stacks hear each other directly), beaconing at
// 100 ms with TTL covering the full diameter, sharded across D domains with
// the head unicasting CAMs at the tail. Event throughput scales with N x
// relays; the sharded rows surface the lookahead-window coordination cost on
// the same workload (counters locked in by tests/test_mesh.cpp).
//
// BM_MeshRouteConvergence: simulated time until the head of an 8-stack
// chain first resolves a next hop toward the tail — the "how long until
// the mesh is routable" number, reported as sim_ms.
//
// Timing is manual (UseManualTime): assembly excluded, run() wall time only.

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "mesh/mesh_stack.hpp"
#include "sim/sharded_kernel.hpp"

using namespace sa;
using sim::Duration;
using sim::Time;

namespace {

std::string stack_name(int i) { return "v" + std::to_string(i); }

void BM_MeshSaturation(benchmark::State& state) {
    const int vehicles = static_cast<int>(state.range(0));
    const auto domains = static_cast<std::size_t>(state.range(1));
    std::uint64_t transmissions = 0;
    std::uint64_t deliveries = 0;
    std::uint64_t relays = 0;
    std::uint64_t cams = 0;
    for (auto _ : state) {
        sim::ShardedKernel kernel(domains, 2051);
        v2v::Medium medium(kernel.domain(0), {.loss_probability = 0.1,
                                              .latency = Duration::ms(20),
                                              .range_m = 150.0,
                                              .seed = 2051});
        std::vector<std::unique_ptr<mesh::MeshStack>> stacks;
        for (int i = 0; i < vehicles; ++i) {
            mesh::MeshConfig config;
            config.beacon_ttl = static_cast<std::uint32_t>(vehicles);
            config.beacon_phase = Duration::us(913 * i + 11);
            stacks.push_back(std::make_unique<mesh::MeshStack>(
                stack_name(i), medium,
                kernel.domain(static_cast<std::size_t>(i) % domains), config,
                120.0 * i));
        }
        const std::string tail = stack_name(vehicles - 1);
        kernel.domain(0).schedule_periodic(
            Duration::ms(250),
            [&head = *stacks.front(), tail] { (void)head.send_cam(tail); },
            Duration::ms(100));

        const auto start = std::chrono::steady_clock::now();
        kernel.run_until(Time(Duration::sec(2).count_ns()));
        const auto end = std::chrono::steady_clock::now();
        state.SetIterationTime(std::chrono::duration<double>(end - start).count());

        transmissions = medium.transmissions();
        deliveries = medium.deliveries();
        relays = 0;
        for (const auto& stack : stacks) {
            relays += stack->announces_relayed() + stack->cams_relayed();
        }
        cams = stacks.back()->cams_received();
    }
    state.counters["transmissions"] = static_cast<double>(transmissions);
    state.counters["deliveries"] = static_cast<double>(deliveries);
    state.counters["relays"] = static_cast<double>(relays);
    state.counters["tail_cams"] = static_cast<double>(cams);
}
BENCHMARK(BM_MeshSaturation)
    ->ArgNames({"vehicles", "domains"})
    ->Args({4, 1})
    ->Args({8, 1})
    ->Args({8, 4})
    ->Args({16, 4})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void BM_MeshRouteConvergence(benchmark::State& state) {
    constexpr int kVehicles = 8;
    double sim_ms = 0.0;
    for (auto _ : state) {
        sim::Simulator sim;
        v2v::Medium medium(sim, {.latency = Duration::ms(20),
                                 .range_m = 150.0,
                                 .seed = 2051});
        std::vector<std::unique_ptr<mesh::MeshStack>> stacks;
        for (int i = 0; i < kVehicles; ++i) {
            mesh::MeshConfig config;
            config.beacon_ttl = kVehicles;
            config.beacon_phase = Duration::us(913 * i + 11);
            stacks.push_back(std::make_unique<mesh::MeshStack>(
                stack_name(i), medium, sim, config, 120.0 * i));
        }
        const std::string tail = stack_name(kVehicles - 1);

        const auto start = std::chrono::steady_clock::now();
        Time horizon = Time::zero();
        while (!stacks.front()->next_hop(tail).has_value() &&
               horizon.ns() < Duration::sec(10).count_ns()) {
            horizon = Time(horizon.ns() + Duration::ms(10).count_ns());
            sim.run_until(horizon);
        }
        const auto end = std::chrono::steady_clock::now();
        state.SetIterationTime(std::chrono::duration<double>(end - start).count());
        sim_ms = static_cast<double>(horizon.ns()) / 1e6;
    }
    state.counters["sim_ms"] = sim_ms;
}
BENCHMARK(BM_MeshRouteConvergence)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

} // namespace
