// Quickstart: compose a minimal self-aware vehicle platform on the
// sa::scenario builder — the sanctioned composition root:
//
//   1. declare the platform and the component contracts
//   2. the builder runs the MCC integration and deploys to the RTE
//   3. monitors, skill graph, layer stack and self-model ride along
//   4. run, then print the vehicle's self-model
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "scenario/scenario_builder.hpp"

using namespace sa;
using sim::Duration;

namespace {

constexpr const char* kContracts = R"(
    component perception {
      asil C;
      task track { wcet 3ms; bcet 1ms; period 40ms; }
      provides service object_list { max_rate 100/s; }
      message objects { payload 8; period 40ms; }
    }
    component acc {
      asil C;
      security_level 1;
      task plan { wcet 1ms; period 20ms; }
      requires service object_list;
    }
    component brake {
      asil D;
      security_level 2;
      task control { wcet 400us; period 10ms; deadline 8ms; }
      provides service brake_cmd { max_rate 300/s; min_client_level 1; }
    }
)";

} // namespace

int main() {
    scenario::ScenarioBuilder builder(42);
    builder.vehicle("ego")
        .ecu({"ecu_front", 1.0, 0.75, model::Asil::D, "engine_bay", "main"})
        .ecu({"ecu_rear", 1.0, 0.75, model::Asil::D, "trunk", "main"})
        .can_bus({"can0", 500'000, 0.6})
        .contracts(kContracts)
        .integration_policy(scenario::IntegrationPolicy::ReportOnly)
        .rate_ids(Duration::ms(100))
        .skill_graph("acc")
        .full_layer_stack()
        .self_model(Duration::ms(500));
    auto scenario = builder.build();
    auto& ego = scenario->vehicle("ego");

    const auto& report = ego.integration_report();
    std::printf("MCC integration: %s\n", report.accepted ? "ACCEPTED" : "REJECTED");
    for (const auto& step : report.steps) {
        std::printf("  [%-18s] %s %s\n", step.name.c_str(),
                    step.passed ? "ok " : "FAIL", step.detail.c_str());
    }
    if (!report.accepted) {
        std::printf("rejected: %s\n", report.rejection_reason.c_str());
        return 1;
    }

    scenario->run(Duration::sec(5));

    std::printf("\nafter 5 s of operation:\n");
    std::printf("  jobs completed: %llu, deadline misses: %llu\n",
                static_cast<unsigned long long>(ego.rte().total_completed_jobs()),
                static_cast<unsigned long long>(ego.rte().total_deadline_misses()));
    std::printf("  anomalies: %llu, problems handled: %llu\n",
                static_cast<unsigned long long>(ego.monitors().total_anomalies()),
                static_cast<unsigned long long>(ego.coordinator().problems_handled()));
    std::printf("  self-model: %s\n", ego.self_model().latest().str().c_str());
    std::printf("  root ability '%s': %s (%.2f)\n", skills::acc::kAccDriving,
                skills::to_string(ego.abilities().ability(skills::acc::kAccDriving)),
                ego.abilities().level(skills::acc::kAccDriving));
    std::printf("\nquickstart finished.\n");
    return 0;
}
