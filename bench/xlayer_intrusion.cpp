// XLAYER-IDS — §V worked example: compromised rear-brake component. Head-to-
// head comparison of single-layer vs. cross-layer self-awareness (the
// paper's central argument), plus the redundancy variant.
//
// Series reproduced, per strategy:
//  - detection-to-containment latency (simulated),
//  - whether the function loss was covered (redundancy or compensation),
//  - residual brake effectiveness and whether a speed limit protects it,
//  - decisions/escalations taken.

#include <benchmark/benchmark.h>

#include "util/log.hpp"

#include "core/ability_layer.hpp"
#include "core/coordinator.hpp"
#include "core/network_layer.hpp"
#include "core/objective_layer.hpp"
#include "core/platform_layer.hpp"
#include "core/safety_layer.hpp"
#include "model/contract_parser.hpp"
#include "model/mcc.hpp"
#include "monitor/manager.hpp"
#include "monitor/rate_monitor.hpp"
#include "rte/fault_injection.hpp"
#include "skills/capability_registry.hpp"
#include "skills/degradation.hpp"
#include "vehicle/acc_controller.hpp"
#include "vehicle/brake_by_wire.hpp"

using namespace sa;
using sim::Duration;
using sim::Time;

namespace {

// Injection warnings are expected here; keep benchmark output clean.
const bool g_quiet = [] {
    Log::set_level(LogLevel::Error);
    return true;
}();

struct Outcome {
    bool contained = false;
    double containment_ms = 0.0; ///< attack start -> containment (simulated)
    bool loss_covered = false;   ///< redundancy or compensation happened
    double brake_effectiveness = 0.0;
    bool speed_limited = false;
    bool safe_stop = false;
    std::uint64_t problems = 0;
    std::uint64_t escalations = 0;
};

Outcome run_scenario(bool cross_layer, bool with_redundancy) {
    sim::Simulator simulator(321);
    model::PlatformModel platform;
    platform.ecus.push_back(model::EcuDescriptor{"chassis_a", 1.0, 0.75, model::Asil::D,
                                                 "engine_bay", "main"});
    platform.ecus.push_back(model::EcuDescriptor{"chassis_b", 1.0, 0.75, model::Asil::D,
                                                 "cabin", "main"});
    model::Mcc mcc(platform);

    std::string text = R"(
        component brake_ctrl {
          asil D;
          security_level 2;
          task control { wcet 400us; period 10ms; deadline 8ms; }
          provides service brake_cmd { max_rate 300/s; min_client_level 1; }
          pin ecu chassis_a;
    )";
    if (with_redundancy) {
        text += "  redundant_with brake_ctrl_b;\n";
    }
    text += R"(
        }
        component perception {
          asil C;
          task track { wcet 3ms; period 40ms; }
          provides service object_list { max_rate 100/s; }
        }
    )";
    if (with_redundancy) {
        text += R"(
            component brake_ctrl_b {
              asil D;
              security_level 2;
              task control { wcet 400us; period 10ms; deadline 8ms; }
              redundant_with brake_ctrl;
              pin ecu chassis_b;
            }
        )";
    }
    model::ContractParser parser;
    model::ChangeRequest change;
    change.contracts = parser.parse(text);
    SA_ASSERT(mcc.integrate(change).accepted, "bench integration must succeed");

    rte::Rte rte(simulator);
    rte.add_ecu(rte::EcuConfig{"chassis_a", {1.0, 0.8, 0.6, 0.4}, {}});
    rte.add_ecu(rte::EcuConfig{"chassis_b", {1.0, 0.8, 0.6, 0.4}, {}});
    rte.apply(mcc.make_rte_config());
    rte.start();

    monitor::MonitorManager monitors(simulator);
    auto& ids = monitors.add<monitor::RateMonitor>(rte.services(), Duration::ms(100));
    ids.set_default_bound(400.0);
    ids.start();

    skills::AbilityGraph abilities(*skills::CapabilityRegistry::builtin().spec("acc"));
    skills::DegradationManager tactics;
    vehicle::BrakeByWire brakes;
    vehicle::AccController acc;

    core::CoordinatorConfig ccfg;
    ccfg.cross_layer_enabled = cross_layer;
    core::CrossLayerCoordinator coordinator(simulator, ccfg);
    coordinator.register_layer(std::make_unique<core::PlatformLayer>(rte, mcc));
    coordinator.register_layer(std::make_unique<core::NetworkLayer>(rte));
    auto safety = std::make_unique<core::SafetyLayer>(rte, mcc);
    auto* safety_ptr = safety.get();
    coordinator.register_layer(std::move(safety));
    auto ability =
        std::make_unique<core::AbilityLayer>(abilities, tactics, skills::acc::kAccDriving);
    ability->set_update_hook([&](const core::Problem& problem) {
        if (problem.anomaly.kind == "component_contained" &&
            problem.anomaly.source == "brake_ctrl") {
            brakes.set_rear_available(false);
            abilities.set_source_level(skills::acc::kBrakeSystem, brakes.ability_level());
            return true;
        }
        return false;
    });
    auto* ability_ptr = ability.get();
    coordinator.register_layer(std::move(ability));
    auto objective = std::make_unique<core::ObjectiveLayer>();
    auto* objective_ptr = objective.get();
    coordinator.register_layer(std::move(objective));
    coordinator.connect(monitors);

    tactics.register_tactic(skills::Tactic{
        "reduce_speed_and_drivetrain_brake", skills::acc::kDecelerate, 0.2, 0.85, 2,
        [&] {
            acc.set_speed_limit(15.0);
            brakes.set_drivetrain_assist(true);
            abilities.set_source_level(skills::acc::kBrakeSystem, brakes.ability_level());
        },
        nullptr});

    // Attack at t = 500 ms.
    rte::FaultInjector chaos(rte);
    const Time attack_at = Time(Duration::ms(500).count_ns());
    simulator.schedule_at(attack_at, [&] {
        rte.access().grant("brake_ctrl", "object_list");
        chaos.compromise_with_message_storm("brake_ctrl", "object_list", Duration::ms(2));
    });

    Time contained_at = Time::zero();
    rte.component("brake_ctrl").state_changed().subscribe(
        [&](rte::ComponentState, rte::ComponentState next) {
            if (next == rte::ComponentState::Contained && contained_at == Time::zero()) {
                contained_at = simulator.now();
            }
        });

    simulator.run_until(Time(Duration::sec(4).count_ns()));

    Outcome out;
    out.contained =
        rte.component("brake_ctrl").state() == rte::ComponentState::Contained;
    out.containment_ms =
        out.contained ? (contained_at - attack_at).to_ms() : -1.0;
    out.loss_covered = safety_ptr->redundancy_activations() > 0 ||
                       ability_ptr->tactics_applied() > 0;
    out.brake_effectiveness = brakes.effectiveness();
    out.speed_limited = acc.speed_limit().has_value();
    out.safe_stop = objective_ptr->objective() == core::DrivingObjective::SafeStop;
    out.problems = coordinator.problems_handled();
    out.escalations = coordinator.total_escalations();
    return out;
}

void BM_Intrusion(benchmark::State& state) {
    const bool cross_layer = state.range(0) != 0;
    const bool redundancy = state.range(1) != 0;
    Outcome out;
    for (auto _ : state) {
        out = run_scenario(cross_layer, redundancy);
        benchmark::DoNotOptimize(out);
    }
    state.counters["cross_layer"] = cross_layer ? 1 : 0;
    state.counters["redundancy"] = redundancy ? 1 : 0;
    state.counters["contained"] = out.contained ? 1 : 0;
    state.counters["containment_ms"] = out.containment_ms;
    state.counters["loss_covered"] = out.loss_covered ? 1 : 0;
    state.counters["brake_effect_pct"] = out.brake_effectiveness * 100.0;
    state.counters["speed_limited"] = out.speed_limited ? 1 : 0;
    state.counters["safe_stop"] = out.safe_stop ? 1 : 0;
    state.counters["problems"] = static_cast<double>(out.problems);
    state.counters["escalations"] = static_cast<double>(out.escalations);
}
// (cross_layer, redundancy): the paper's argument is the contrast between
// {0,0} (local containment only, function loss unhandled) and {1,0}/{1,1}
// (cross-layer coverage via ability tactics or redundancy).
BENCHMARK(BM_Intrusion)->Args({0, 0})->Args({0, 1})->Args({1, 0})->Args({1, 1})
    ->Unit(benchmark::kMillisecond)->Iterations(3);

} // namespace
