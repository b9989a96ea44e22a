// LINT — cost of the sa::lint structural gate. The gate runs inside every
// Mcc::integrate() (step 3, before the viewpoints), so its cost must stay
// far below the ~30 µs a small integration takes in fig1_mcc_integration:
// BM_LintMccIntegrate measures integrate() with the gate, BM_LintSystem the
// bare rule pass, and BM_LintBuiltin the skills-layer sweep over the whole
// builtin capability registry.

#include <benchmark/benchmark.h>

#include "lint/model_rules.hpp"
#include "lint/skills_rules.hpp"
#include "model/mcc.hpp"
#include "skills/capability_registry.hpp"
#include "util/string_util.hpp"

using namespace sa;
using namespace sa::model;
using sim::Duration;

namespace {

PlatformModel make_platform(int ecus) {
    PlatformModel p;
    for (int i = 0; i < ecus; ++i) {
        p.ecus.push_back(EcuDescriptor{format("ecu%d", i), 1.0, 0.75, Asil::D,
                                       i % 2 ? "cabin" : "engine_bay", "main"});
    }
    p.buses.push_back(BusDescriptor{"can0", 500'000, 0.6});
    p.buses.push_back(BusDescriptor{"can1", 500'000, 0.6});
    return p;
}

Contract make_component(int index) {
    Contract c;
    c.component = format("comp%03d", index);
    c.asil = index == 0 ? Asil::D : static_cast<Asil>(index % 5);
    TaskSpec t;
    t.name = "main";
    t.period = Duration::ms(5 + (index % 4) * 5);
    t.wcet = Duration::us(300 + (index % 7) * 100);
    t.bcet = t.wcet;
    c.tasks.push_back(t);
    ProvidedService svc;
    svc.name = format("svc%03d", index);
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
    m.bus = index % 2 ? "can1" : "can0";
    c.messages.push_back(m);
    return c;
}

/// Skills-layer sweep over the full builtin registry: every spec, every
/// alarm binding, dead-capability detection across 30+ capabilities.
void BM_LintBuiltin(benchmark::State& state) {
    const auto& registry = skills::CapabilityRegistry::builtin();
    std::size_t findings = 0;
    for (auto _ : state) {
        const auto report = lint::lint_registry(registry);
        findings = report.findings().size();
        benchmark::DoNotOptimize(report);
    }
    state.counters["findings"] = static_cast<double>(findings);
}
BENCHMARK(BM_LintBuiltin)->Unit(benchmark::kMicrosecond);

/// The bare model-layer rule pass the MCC gate runs, over an n-component
/// mapped system.
void BM_LintSystem(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    FunctionModel fm;
    for (int i = 0; i < n; ++i) {
        fm.upsert(make_component(i));
    }
    const auto platform = make_platform(std::max(2, n / 8));
    const auto mapped = Mapper{}.map(fm, platform);
    std::size_t findings = 0;
    for (auto _ : state) {
        const auto report = lint::lint_system(fm, platform, &mapped.mapping);
        findings = report.findings().size();
        benchmark::DoNotOptimize(report);
    }
    state.counters["components"] = n;
    state.counters["findings"] = static_cast<double>(findings);
}
BENCHMARK(BM_LintSystem)->Arg(4)->Arg(16)->Arg(64)->Unit(benchmark::kMicrosecond);

/// Full Mcc::integrate(), structural gate included: the end-to-end cost of
/// the fig1 integration path with its lint step. The argument only keeps
/// the row's name.
void BM_LintMccIntegrate(benchmark::State& state) {
    ChangeRequest change;
    for (int i = 0; i < 4; ++i) {
        change.contracts.push_back(make_component(i));
    }
    bool accepted = false;
    for (auto _ : state) {
        Mcc mcc(make_platform(2));
        const auto report = mcc.integrate(change);
        accepted = report.accepted;
        benchmark::DoNotOptimize(report);
    }
    state.counters["accepted"] = accepted ? 1 : 0;
}
BENCHMARK(BM_LintMccIntegrate)->Arg(1)->Unit(benchmark::kMicrosecond);

} // namespace
