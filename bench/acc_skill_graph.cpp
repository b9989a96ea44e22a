// ACC-SKILL — §IV: ability graphs "are used during operation of the vehicle
// to monitor the current system performance" and enable graceful
// degradation.
//
// Series reproduced:
//  - propagation latency vs. graph size (runtime monitoring must be cheap),
//  - the ACC fog scenario: ability level of the root skill and the safety
//    outcome (min gap, collision) with and without degradation tactics.

#include <benchmark/benchmark.h>

#include "monitor/sensor_quality_monitor.hpp"
#include "skills/ability_graph.hpp"
#include "skills/capability_registry.hpp"
#include "skills/degradation.hpp"
#include "util/random.hpp"
#include "util/string_util.hpp"
#include "vehicle/vehicle_sim.hpp"

using namespace sa;
using namespace sa::skills;
using sim::Duration;
using sim::Time;

namespace {

/// Random layered DAG: `layers` layers of `width` skills, sources at the
/// bottom, one root on top.
SkillGraphSpec make_layered_graph(int layers, int width, std::uint64_t seed) {
    RandomEngine rng(seed);
    SkillGraphSpec g("layered");
    g.skill("root");
    std::vector<std::string> previous{"root"};
    for (int l = 0; l < layers; ++l) {
        std::vector<std::string> current;
        for (int w = 0; w < width; ++w) {
            const std::string name = format("s_%d_%d", l, w);
            g.skill(name);
            current.push_back(name);
        }
        for (const auto& parent : previous) {
            // Each parent depends on 2 nodes of the next layer.
            std::vector<std::string> kids;
            for (int k = 0; k < 2; ++k) {
                const auto& child = current[rng.index(current.size())];
                if (std::find(kids.begin(), kids.end(), child) == kids.end()) {
                    kids.push_back(child);
                }
            }
            g.depends(parent, kids);
        }
        previous = current;
    }
    int source_index = 0;
    for (const auto& leaf : previous) {
        const std::string src = format("src_%d", source_index++);
        g.source(src);
        g.depends(leaf, {src});
    }
    return g;
}

void BM_Propagate(benchmark::State& state) {
    const int layers = static_cast<int>(state.range(0));
    const int width = static_cast<int>(state.range(1));
    AbilityGraph abilities(make_layered_graph(layers, width, 5));
    RandomEngine rng(9);
    int source_index = 0;
    for (auto _ : state) {
        state.PauseTiming();
        abilities.set_source_level(format("src_%d", source_index++ % width),
                                   rng.uniform(0.0, 1.0));
        state.ResumeTiming();
        benchmark::DoNotOptimize(abilities.propagate());
    }
    state.counters["nodes"] = static_cast<double>(abilities.node_count());
    state.counters["edges"] = static_cast<double>(abilities.edge_count());
}
BENCHMARK(BM_Propagate)->Args({3, 4})->Args({5, 8})->Args({8, 16})->Args({10, 32})
    ->Unit(benchmark::kMicrosecond);

/// The paper's ACC graph: one full degradation + recovery cycle.
void BM_AccGraphCycle(benchmark::State& state) {
    AbilityGraph abilities(*CapabilityRegistry::builtin().spec("acc"));
    for (auto _ : state) {
        abilities.set_source_level(acc::kCamera, 0.1);
        abilities.propagate();
        abilities.set_source_level(acc::kCamera, 1.0);
        abilities.propagate();
    }
    state.counters["nodes"] = static_cast<double>(abilities.node_count());
}
BENCHMARK(BM_AccGraphCycle)->Unit(benchmark::kMicrosecond);

/// Fog scenario outcome with/without graceful degradation tactics.
void BM_FogScenario(benchmark::State& state) {
    const bool with_tactics = state.range(0) != 0;
    double min_gap = 0.0;
    double root_level = 0.0;
    bool collided = false;
    std::uint64_t tactics_applied = 0;
    for (auto _ : state) {
        sim::Simulator simulator(7);
        vehicle::ScenarioConfig cfg;
        cfg.initial_gap_m = 55.0;
        cfg.ego_speed_mps = 26.0;
        cfg.lead_speed_mps = 22.0;
        vehicle::VehicleSim scenario(simulator, cfg);
        const auto radar = scenario.add_sensor(vehicle::SensorConfig{
            vehicle::SensorType::Radar, "radar", 150.0, 0.3, 0.002});
        const auto camera = scenario.add_sensor(vehicle::SensorConfig{
            vehicle::SensorType::Camera, "camera", 100.0, 0.5, 0.005});

        monitor::SensorQualityConfig mq;
        mq.nominal_noise_sigma = 0.6;
        monitor::SensorQualityMonitor q_radar(simulator, "radar", mq);
        monitor::SensorQualityMonitor q_camera(simulator, "camera", mq);
        scenario.attach_quality_monitor(radar, q_radar);
        scenario.attach_quality_monitor(camera, q_camera);

        SkillGraphSpec fused = *CapabilityRegistry::builtin().spec("acc");
        fused.aggregate(acc::kPerceiveTrack, Aggregation::WeightedMean)
            .weight(acc::kPerceiveTrack, acc::kRadar, 3.0)
            .weight(acc::kPerceiveTrack, acc::kCamera, 1.0)
            .weight(acc::kPerceiveTrack, acc::kLidar, 1.0);
        AbilityGraph abilities(fused);
        abilities.set_source_level(acc::kLidar, 0.0); // not fitted
        abilities.bind_source(acc::kRadar, q_radar);
        abilities.bind_source(acc::kCamera, q_camera);

        DegradationManager tactics;
        if (with_tactics) {
            tactics.register_tactic(Tactic{
                "widen_gap_and_slow", acc::kPerceiveTrack, 0.0, 0.8, 1,
                [&] {
                    scenario.acc().set_time_gap(2.8);
                    scenario.acc().set_speed_limit(14.0);
                },
                nullptr});
            simulator.schedule_periodic(Duration::ms(500),
                                        [&] { (void)tactics.execute(abilities); });
        }
        q_radar.start();
        q_camera.start();
        scenario.set_lead_profile([](Time t) {
            if (t.s() < 20.0) return 22.0;
            if (t.s() < 40.0) return 12.0;
            return 6.0; // lead crawls in the fog
        });
        scenario.start();
        simulator.run_until(Time(Duration::sec(20).count_ns()));
        scenario.set_weather(vehicle::WeatherCondition::dense_fog());
        simulator.run_until(Time(Duration::sec(60).count_ns()));

        min_gap = scenario.gap_stats().min();
        collided = scenario.collided();
        root_level = abilities.level(acc::kAccDriving);
        tactics_applied = tactics.history().size();
    }
    state.counters["with_tactics"] = with_tactics ? 1 : 0;
    state.counters["min_gap_m"] = min_gap;
    state.counters["collided"] = collided ? 1 : 0;
    state.counters["root_ability"] = root_level;
    state.counters["tactics_applied"] = static_cast<double>(tactics_applied);
}
BENCHMARK(BM_FogScenario)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond)
    ->Iterations(3);

} // namespace
