// SKILL-SWEEP — the declarative skills layer under load.
//
// Series:
//  - BM_SpecPropagate/<spec>: propagate cost vs. graph size/shape for every
//    builtin spec (the §IV ACC graph vs. the three new maneuvers). Runtime
//    self-monitoring must stay cheap no matter which maneuver is active.
//  - BM_SpecParseInstantiate: authoring cost — parse the textual spec form
//    and instantiate the runtime ability graph. This is the "scenario as
//    data" path; it runs at vehicle assembly, not in the control loop.
//  - BM_ManeuverPlatoon/domains: the degradation-triggered split scenario
//    (the workload tests/test_sharded.cpp proves deterministic across
//    domain counts) at 1/2/4 ECU domains. Timing is manual: assembly
//    excluded, run() wall time only.

#include <benchmark/benchmark.h>

#include <chrono>
#include <string>

#include "scenario/presets.hpp"
#include "scenario/scenario_builder.hpp"
#include "skills/capability_registry.hpp"

using namespace sa;
using namespace sa::skills;
using sim::Duration;

namespace {

void BM_SpecPropagate(benchmark::State& state, const char* spec_name) {
    const auto& registry = CapabilityRegistry::builtin();
    AbilityGraph abilities(*registry.spec(spec_name));
    // Toggle the first source between two levels so every propagate does
    // real work (no memoized fixpoint).
    std::string source;
    for (const auto& node : abilities.node_names()) {
        if (abilities.kind(node) == SkillNodeKind::DataSource) {
            source = node;
            break;
        }
    }
    double level = 0.25;
    for (auto _ : state) {
        abilities.set_source_level(source, level);
        level = 1.25 - level; // 0.25 <-> 1.0
        benchmark::DoNotOptimize(abilities.propagate());
    }
    state.counters["nodes"] = static_cast<double>(abilities.node_count());
    state.counters["edges"] = static_cast<double>(abilities.edge_count());
}
BENCHMARK_CAPTURE(BM_SpecPropagate, acc, "acc")->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_SpecPropagate, lane_keep, "lane_keep")
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_SpecPropagate, emergency_stop, "emergency_stop")
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_SpecPropagate, platoon_follow, "platoon_follow")
    ->Unit(benchmark::kMicrosecond);

void BM_SpecParseInstantiate(benchmark::State& state) {
    const std::string text = CapabilityRegistry::builtin().spec("acc")->str();
    for (auto _ : state) {
        const AbilityGraph abilities(SkillGraphSpec::parse(text));
        benchmark::DoNotOptimize(abilities.node_count());
    }
    state.counters["text_bytes"] = static_cast<double>(text.size());
}
BENCHMARK(BM_SpecParseInstantiate)->Unit(benchmark::kMicrosecond);

const char* const kVehicles[] = {"alpha", "beta", "gamma"};

void BM_ManeuverPlatoon(benchmark::State& state) {
    const auto domains = static_cast<std::size_t>(state.range(0));
    std::uint64_t events = 0;
    std::uint64_t maneuvers = 0;
    double beta_follow = 1.0;
    for (auto _ : state) {
        scenario::ScenarioBuilder builder(4242);
        builder.domains(domains);
        for (const char* name : kVehicles) {
            scenario::presets::declare_platoon_follow_vehicle(builder, name);
            builder.trust(name, 14).platoon_candidate({name, 0.9, 24.0, 10.0, false});
        }
        platoon::ManeuverPolicy policy;
        policy.check_period = Duration::ms(247); // off any periodic's grid
        builder.platoon_maneuvers(policy);
        builder
            .at(Duration::ms(100),
                [](scenario::Scenario& s) { (void)s.form_managed_platoon(); })
            .at(Duration::ms(600), [](scenario::Scenario& s) {
                auto& abilities = s.vehicle("beta").abilities();
                abilities.set_source_level(caps::kV2vLink, 0.0);
                abilities.set_source_level(acc::kRadar, 0.0);
                abilities.propagate();
            });
        auto scenario = builder.build();

        const auto start = std::chrono::steady_clock::now();
        scenario->run(Duration::sec(2), domains);
        const auto end = std::chrono::steady_clock::now();
        state.SetIterationTime(std::chrono::duration<double>(end - start).count());

        events = scenario->kernel().executed_events();
        maneuvers = scenario->platoon().history().size();
        beta_follow = scenario->vehicle("beta").abilities().level(caps::kPlatoonFollow);
    }
    state.counters["events"] = static_cast<double>(events);
    state.counters["maneuvers"] = static_cast<double>(maneuvers);
    state.counters["beta_follow"] = beta_follow;
}
BENCHMARK(BM_ManeuverPlatoon)
    ->ArgName("domains")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

} // namespace
