// FIG2-LAT — Fig. 2 + §III: "near-native transmit and receive performance
// can be achieved, with an added latency around 7-11 us for a round-trip."
//
// Series reproduced: simulated round-trip latency of an echo transaction
// between two CAN nodes at 500 kbit/s — native controllers vs. virtualized
// controllers with 1..8 active VFs per side. Counters report the simulated
// round-trip time (rt_us) and the overhead over native (overhead_us); the
// paper's claim holds if overhead_us stays within ~7-11 us.

#include <benchmark/benchmark.h>

#include "can/bus.hpp"
#include "can/controller.hpp"
#include "can/virtual_controller.hpp"

using namespace sa;
using namespace sa::can;
using sim::Duration;
using sim::Time;

namespace {

/// One native round trip; returns simulated completion time (us).
double native_round_trip_us() {
    sim::Simulator simulator;
    CanBus bus(simulator);
    CanController a(bus);
    CanController b(bus);
    Time done;
    b.add_rx_filter(0x100, 0x7FF,
                    [&](const CanFrame&, Time) { b.send(CanFrame::make(0x200, {1})); });
    a.add_rx_filter(0x200, 0x7FF, [&](const CanFrame&, Time at) { done = at; });
    a.send(CanFrame::make(0x100, {1}));
    simulator.run_until(Time(Duration::ms(50).count_ns()));
    return static_cast<double>(done.ns()) / 1e3;
}

/// One virtualized round trip with `vfs` active VFs per endpoint.
double virtualized_round_trip_us(int vfs) {
    sim::Simulator simulator;
    CanBus bus(simulator);
    VirtualCanController a(bus);
    VirtualCanController b(bus);
    auto ta = a.take_pf_token();
    auto tb = b.take_pf_token();
    for (int i = 0; i < vfs; ++i) {
        a.pf_create_vf(ta);
        b.pf_create_vf(tb);
    }
    Time done;
    b.vf(0).add_rx_filter(0x100, 0x7FF, [&](const CanFrame&, Time) {
        b.vf(0).send(CanFrame::make(0x200, {1}));
    });
    a.vf(0).add_rx_filter(0x200, 0x7FF, [&](const CanFrame&, Time at) { done = at; });
    a.vf(0).send(CanFrame::make(0x100, {1}));
    simulator.run_until(Time(Duration::ms(50).count_ns()));
    return static_cast<double>(done.ns()) / 1e3;
}

void BM_NativeRoundTrip(benchmark::State& state) {
    double rt = 0.0;
    for (auto _ : state) {
        rt = native_round_trip_us();
        benchmark::DoNotOptimize(rt);
    }
    state.counters["rt_us"] = rt;
}
BENCHMARK(BM_NativeRoundTrip)->Unit(benchmark::kMicrosecond);

void BM_VirtualizedRoundTrip(benchmark::State& state) {
    const int vfs = static_cast<int>(state.range(0));
    const double native = native_round_trip_us();
    double rt = 0.0;
    for (auto _ : state) {
        rt = virtualized_round_trip_us(vfs);
        benchmark::DoNotOptimize(rt);
    }
    state.counters["vfs"] = vfs;
    state.counters["rt_us"] = rt;
    state.counters["overhead_us"] = rt - native;
    state.counters["paper_band"] = (rt - native >= 6.5 && rt - native <= 11.5) ? 1 : 0;
}
BENCHMARK(BM_VirtualizedRoundTrip)->DenseRange(1, 8, 1)->Unit(benchmark::kMicrosecond);

/// Throughput: frames completed per simulated second under saturation —
/// "near-native transmit and receive performance".
void BM_SaturatedThroughput(benchmark::State& state) {
    const bool virtualized = state.range(0) != 0;
    std::uint64_t frames = 0;
    for (auto _ : state) {
        sim::Simulator simulator;
        CanBus bus(simulator);
        if (virtualized) {
            VirtualCanController tx(bus);
            auto token = tx.take_pf_token();
            auto& vf = tx.pf_create_vf(token, 64);
            std::uint32_t next = 0;
            simulator.schedule_periodic(Duration::us(200), [&] {
                vf.send(CanFrame::make(0x100 + (next++ % 64), {1, 2, 3, 4, 5, 6, 7, 8}));
            });
            simulator.run_until(Time(Duration::sec(1).count_ns()));
            frames = bus.frames_transmitted();
        } else {
            CanController tx(bus, 64);
            std::uint32_t next = 0;
            simulator.schedule_periodic(Duration::us(200), [&] {
                tx.send(CanFrame::make(0x100 + (next++ % 64), {1, 2, 3, 4, 5, 6, 7, 8}));
            });
            simulator.run_until(Time(Duration::sec(1).count_ns()));
            frames = bus.frames_transmitted();
        }
    }
    state.counters["virtualized"] = virtualized ? 1 : 0;
    state.counters["frames_per_sim_s"] = static_cast<double>(frames);
}
BENCHMARK(BM_SaturatedThroughput)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

} // namespace
