// FIG1 — Fig. 1 + §II: the closed model/execution-domain loop. The MCC
// integrates change requests through mapping + viewpoint acceptance tests.
//
// Series reproduced: integration latency and acceptance outcome vs. system
// size (number of components), plus the accept/reject discrimination between
// benign and harmful updates. The measured wall-clock time per iteration IS
// the experiment: it is the cost of the automated in-field integration
// process that replaces lab-based re-testing.

#include <benchmark/benchmark.h>

#include "model/mcc.hpp"
#include "scenario/presets.hpp"
#include "util/string_util.hpp"

using namespace sa;
using namespace sa::model;
using sim::Duration;

namespace {

/// The platform is declared once on the scenario builder; the benchmark
/// then exercises the MCC against the builder's model-domain product.
PlatformModel make_platform(int ecus) {
    scenario::VehicleBuilder builder("fig1");
    for (int i = 0; i < ecus; ++i) {
        builder.ecu(EcuDescriptor{format("ecu%d", i), 1.0, 0.75, Asil::D,
                                  i % 2 ? "cabin" : "engine_bay", "main"});
    }
    builder.can_bus(BusDescriptor{"can0", 500'000, 0.6})
        .can_bus(BusDescriptor{"can1", 500'000, 0.6});
    return builder.platform_model();
}

Contract make_component(int index, int total) {
    (void)total;
    Contract c;
    c.component = format("comp%03d", index);
    // comp000 is the ASIL-D root service provider; the rest mix levels.
    c.asil = index == 0 ? Asil::D : static_cast<Asil>(index % 5);
    c.security_level = index % 3;
    TaskSpec t;
    t.name = "main";
    t.period = Duration::ms(5 + (index % 4) * 5);
    t.wcet = Duration::us(300 + (index % 7) * 100);
    t.bcet = t.wcet;
    c.tasks.push_back(t);
    // Chain of service dependencies exercises the dependency analyses.
    // Critical clients (ASIL >= C) must depend on an equal-or-higher
    // integrity provider, so they use the ASIL-D root service.
    ProvidedService svc;
    svc.name = format("svc%03d", index);
    svc.max_client_rate_hz = 200.0;
    c.provides.push_back(svc);
    if (index > 0) {
        const bool critical = c.asil >= Asil::C;
        c.requires_.push_back(
            RequiredService{critical ? "svc000" : format("svc%03d", index - 1)});
    }
    MessageSpec m;
    m.name = format("msg%03d", index);
    m.period = Duration::ms(10 + (index % 5) * 10);
    m.payload_bytes = 8;
    m.bus = index % 2 ? "can1" : "can0"; // split load across the two buses
    c.messages.push_back(m);
    return c;
}

/// Full integration of an n-component system from scratch.
void BM_IntegrateSystem(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    ChangeRequest change;
    change.description = "fig1 system";
    for (int i = 0; i < n; ++i) {
        change.contracts.push_back(make_component(i, n));
    }
    bool accepted = false;
    std::size_t nodes = 0;
    std::size_t edges = 0;
    for (auto _ : state) {
        Mcc mcc(make_platform(std::max(2, n / 8)));
        const auto report = mcc.integrate(change);
        accepted = report.accepted;
        nodes = mcc.dependency_graph().node_count();
        edges = mcc.dependency_graph().edge_count();
        benchmark::DoNotOptimize(report);
    }
    state.counters["components"] = n;
    state.counters["accepted"] = accepted ? 1 : 0;
    state.counters["dep_nodes"] = static_cast<double>(nodes);
    state.counters["dep_edges"] = static_cast<double>(edges);
}
BENCHMARK(BM_IntegrateSystem)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);

/// Incremental update onto a running 16-component system (the common
/// in-field case): one new component.
void BM_IncrementalUpdate(benchmark::State& state) {
    const bool harmful = state.range(0) != 0;
    ChangeRequest base;
    for (int i = 0; i < 16; ++i) {
        base.contracts.push_back(make_component(i, 16));
    }
    bool accepted = false;
    for (auto _ : state) {
        state.PauseTiming();
        Mcc mcc(make_platform(4));
        benchmark::DoNotOptimize(mcc.integrate(base));
        ChangeRequest update;
        update.description = harmful ? "harmful" : "benign";
        Contract extra = make_component(16, 17);
        extra.requires_.clear();
        if (harmful) {
            // Unschedulable demand: must be rejected by the timing viewpoint.
            extra.tasks[0].wcet = Duration::ms(9);
            extra.tasks[0].period = Duration::ms(10);
            extra.tasks[0].deadline = Duration::ms(2);
        }
        update.contracts.push_back(extra);
        state.ResumeTiming();
        const auto report = mcc.integrate(update);
        accepted = report.accepted;
        benchmark::DoNotOptimize(report);
    }
    state.counters["harmful"] = harmful ? 1 : 0;
    state.counters["accepted"] = accepted ? 1 : 0; // benign: 1, harmful: 0
}
BENCHMARK(BM_IncrementalUpdate)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// The viewpoint suite alone (acceptance-test cost on a committed model).
void BM_ViewpointSuite(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    Mcc mcc(make_platform(std::max(2, n / 8)));
    ChangeRequest change;
    for (int i = 0; i < n; ++i) {
        change.contracts.push_back(make_component(i, n));
    }
    benchmark::DoNotOptimize(mcc.integrate(change));
    for (auto _ : state) {
        // Re-run the full integration as a no-op update (same contracts).
        ChangeRequest update;
        update.kind = ChangeRequest::Kind::Update;
        update.contracts = change.contracts;
        benchmark::DoNotOptimize(mcc.integrate(update));
    }
    state.counters["components"] = n;
}
BENCHMARK(BM_ViewpointSuite)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

std::unique_ptr<scenario::Scenario> build_platoon(std::size_t vehicles) {
    scenario::ScenarioBuilder builder(1);
    for (std::size_t i = 0; i < vehicles; ++i) {
        scenario::presets::declare_platoon_follow_vehicle(builder, format("v%zu", i));
    }
    return builder.build();
}

/// Assembly of a platoon (ROADMAP aim 1 counts it in end-to-end time):
/// declare, ScenarioBuilder::build() and teardown of `vehicles` preset
/// vehicles. A warm-up build before the timed loop fills the process's
/// memo of initial analyses, so the row measures the steady state a
/// campaign worker sees: every vehicle copies one analysed MCC.
void BM_BuildPlatoon(benchmark::State& state) {
    const auto vehicles = static_cast<std::size_t>(state.range(0));
    benchmark::DoNotOptimize(build_platoon(vehicles).get());
    for (auto _ : state) {
        auto scenario = build_platoon(vehicles);
        benchmark::DoNotOptimize(scenario.get());
    }
    state.counters["vehicles"] = static_cast<double>(vehicles);
}
BENCHMARK(BM_BuildPlatoon)->ArgName("vehicles")->Arg(8)->Unit(benchmark::kMicrosecond);

} // namespace
