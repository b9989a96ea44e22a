// LEARN-COST — the learned monitor must honour the same §II-B promise as
// the hand-written ones: monitoring "with very little interference on the
// actual functionality." The budget it rides under is the 0.57 ms
// monitor-overhead envelope MON-OVH established.
//
// Series measured: (1) the per-sample MetricModel update (Welford + EWMA,
// the cost paid on every ingested metric), (2) joint-state scoring
// (quantise + leader clustering + surprise, paid once per scoring round),
// and (3) the end-to-end tap path — MonitorManager::ingest() with an
// AnomalyModelMonitor attached vs the bare signal fan-out — which is what
// the vehicle actually pays per metric.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <random>
#include <vector>

#include "learn/anomaly_model_monitor.hpp"
#include "learn/metric_model.hpp"
#include "learn/state_model.hpp"
#include "monitor/manager.hpp"
#include "sim/simulator.hpp"

using namespace sa;

namespace {

/// Pre-generated noisy stream so the RNG is outside the measured loop.
std::vector<double> noise_stream(std::size_t n, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::normal_distribution<double> dist(50.0, 1.5);
    std::vector<double> xs(n);
    for (double& x : xs) {
        x = dist(rng);
    }
    return xs;
}

void BM_MetricModelUpdate(benchmark::State& state) {
    const std::vector<double> xs = noise_stream(4096, 11);
    learn::MetricModel model{learn::MetricModelConfig{}};
    std::size_t i = 0;
    for (auto _ : state) {
        model.update(xs[i++ & 4095]);
        benchmark::DoNotOptimize(model);
    }
    state.counters["drift_z"] = model.drift_z();
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricModelUpdate);

void BM_StateModelObserve(benchmark::State& state) {
    const int metric_count = static_cast<int>(state.range(0));
    // A realistic band stream: mostly the origin state with occasional
    // single-band excursions, i.e. the clustered-steady-state regime the
    // in-sim monitor spends its life in.
    std::mt19937_64 rng(23);
    std::uniform_int_distribution<int> band(-1, 1);
    std::vector<std::vector<int>> stream(512);
    for (auto& bands : stream) {
        bands.assign(static_cast<std::size_t>(metric_count), 0);
        bands[static_cast<std::size_t>(rng() % bands.size())] = band(rng);
    }
    learn::StateModel model{learn::StateModelConfig{}};
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(model.observe(stream[i++ & 511]));
    }
    state.counters["states"] = static_cast<double>(model.state_count());
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StateModelObserve)->Arg(2)->Arg(4)->Arg(8);

/// End-to-end ingest cost with 0 (bare fan-out) or 1 learned monitor
/// attached: the per-metric price the vehicle's pump actually pays.
void BM_IngestWithLearnedMonitor(benchmark::State& state) {
    const bool attached = state.range(0) != 0;
    sim::Simulator simulator(3);
    monitor::MonitorManager manager(simulator);
    learn::LearnedMonitorConfig config;
    config.metrics = {"drive.gap", "drive.speed", "sensor.radar",
                      "sensor.camera"};
    config.auto_metrics = false;
    config.warmup = sim::Duration::ms(0);
    if (attached) {
        manager.add<learn::AnomalyModelMonitor>(manager, config);
    }
    const std::vector<double> xs = noise_stream(4096, 37);
    std::vector<monitor::MetricId> ids;
    for (const std::string& name : config.metrics) {
        ids.push_back(manager.metric_id(name));
    }
    std::size_t i = 0;
    for (auto _ : state) {
        // One full scoring round: all four tracked metrics ingested once.
        for (const monitor::MetricId id : ids) {
            const double value = xs[i++ & 4095];
            manager.ingest(id, value,
                           sim::Time(static_cast<std::int64_t>(i) * 12'500'000));
        }
    }
    state.counters["learned_monitors"] = attached ? 1 : 0;
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4);
}
BENCHMARK(BM_IngestWithLearnedMonitor)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMicrosecond);

} // namespace
