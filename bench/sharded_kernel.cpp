// SHARD — the sharded kernel on the flagship scenario: the dual-bus
// three-vehicle platoon (examples/platoon_dual_bus.cpp) run at 1, 2 and 4
// ECU domains. domains:1 is one domain on the calling thread; the sharded
// rows run the identical workload (identical per-vehicle counters — locked
// in by tests/test_sharded.cpp) on the default thread budget (a thread per
// domain where the affinity mask has that many CPUs) with the 20 ms V2V
// latency as conservative lookahead. BM_ShardedDualBusPlatoonOneThread runs
// the same partitions on a budget of one thread, as a campaign worker does:
// every domain's window on the caller, no handoff. Every row reports the
// kernel's windows, domains:1 included. Wall-clock speedup tracks physical
// cores; on a single-core host the threaded rows surface pure coordination
// overhead instead.
//
// Timing is manual (UseManualTime): assembly excluded, run() wall time only.
//
// BM_WindowHandoff isolates the barrier: every domain runs one no-op event
// per 1 us tick under a 1 us lookahead, so each window is one tick with one
// event per domain and its wall time is almost all handoff. The kernel and
// its workers are set up once, outside the timing; each iteration runs one
// window, so the row's time is the wall time per window, measured directly.
// BM_WindowHandoffTwoThreads runs 4 domains on 2 threads, two per thread.

#include <benchmark/benchmark.h>

#include <chrono>
#include <string>

#include "scenario/presets.hpp"
#include "scenario/scenario_builder.hpp"
#include "sim/sharded_kernel.hpp"

using namespace sa;
using sim::Duration;
using sim::Time;

namespace {

const char* const kVehicles[] = {"alpha", "beta", "gamma"};

void declare_vehicle(scenario::ScenarioBuilder& builder, const std::string& name) {
    // The canonical preset — identical to the declaration the sharded
    // determinism suite locks in, so this bench measures exactly the
    // workload whose counters are proven stable across domain counts.
    scenario::presets::declare_dual_bus_platoon_vehicle(builder, name);
}

void BM_ShardedDualBusPlatoon(benchmark::State& state) {
    const auto domains = static_cast<std::size_t>(state.range(0));
    std::uint64_t events = 0;
    std::uint64_t windows = 0;
    std::uint64_t cross = 0;
    for (auto _ : state) {
        scenario::ScenarioBuilder builder(2026);
        builder.domains(domains).v2v({});
        for (const char* name : kVehicles) {
            declare_vehicle(builder, name);
        }
        builder.at(Duration::sec(1), [](scenario::Scenario& s) {
            auto& beta = s.vehicle("beta");
            beta.rte().access().grant("perception", "brake_cmd");
            beta.faults().compromise_with_message_storm("perception", "brake_cmd",
                                                        Duration::ms(2));
        });
        auto scenario = builder.build();
        for (const char* name : kVehicles) {
            scenario->v2v().attach(name, scenario->vehicle(name).simulator(),
                                   [](const v2v::Frame&, double) {});
        }
        int slot = 0;
        for (const char* name : kVehicles) {
            scenario->simulator().schedule_periodic(
                Duration::ms(100),
                [&v2v = scenario->v2v(), name] {
                    v2v.transmit(v2v::Medium::cam(name, 0.0, 22.0));
                },
                Duration::ms(10 * ++slot));
        }

        const auto start = std::chrono::steady_clock::now();
        scenario->run(Duration::sec(3), domains);
        const auto end = std::chrono::steady_clock::now();
        state.SetIterationTime(std::chrono::duration<double>(end - start).count());

        events = scenario->kernel().executed_events();
        windows = scenario->kernel().windows();
        cross = scenario->kernel().cross_domain_events();
    }
    state.counters["events"] = static_cast<double>(events);
    state.counters["windows"] = static_cast<double>(windows);
    state.counters["cross_domain_events"] = static_cast<double>(cross);
}
BENCHMARK(BM_ShardedDualBusPlatoon)
    ->ArgName("domains")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void BM_ShardedDualBusPlatoonOneThread(benchmark::State& state) {
    const std::size_t previous = sim::set_thread_budget(1);
    BM_ShardedDualBusPlatoon(state);
    (void)sim::set_thread_budget(previous);
}
BENCHMARK(BM_ShardedDualBusPlatoonOneThread)
    ->ArgName("domains")
    ->Arg(2)
    ->Arg(4)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void BM_WindowHandoff(benchmark::State& state) {
    const auto domains = static_cast<std::size_t>(state.range(0));
    sim::ShardedKernel kernel(domains, 2026);
    for (std::size_t d = 0; d < domains; ++d) {
        kernel.declare_lookahead(d, Duration::us(1));
        (void)kernel.domain(d).schedule_periodic(Duration::us(1), [] {});
    }
    // Start the workers before timing: at short --benchmark_min_time the
    // first windows would dominate.
    kernel.run_for(Duration::ms(1));
    const std::uint64_t before = kernel.windows();
    for (auto _ : state) {
        const auto start = std::chrono::steady_clock::now();
        kernel.run_for(Duration::us(1));
        const auto end = std::chrono::steady_clock::now();
        state.SetIterationTime(std::chrono::duration<double>(end - start).count());
    }
    // Reads 1: one window per iteration, so real_time is the time per window.
    state.counters["windows"] = benchmark::Counter(
        static_cast<double>(kernel.windows() - before), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_WindowHandoff)
    ->ArgName("domains")
    ->Arg(2)
    ->Arg(4)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

void BM_WindowHandoffTwoThreads(benchmark::State& state) {
    const std::size_t previous = sim::set_thread_budget(2);
    BM_WindowHandoff(state);
    (void)sim::set_thread_budget(previous);
}
BENCHMARK(BM_WindowHandoffTwoThreads)
    ->ArgName("domains")
    ->Arg(4)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

} // namespace
