// Multi-bus fan-out scenario (ROADMAP): a three-vehicle platoon where every
// vehicle runs a zonal E/E architecture — a sensor zone and an actuation
// zone on separate CAN buses joined by a central gateway. Object data is
// produced in the sensor zone, crosses the gateway, and releases the brake
// task in the actuation zone: a distributed cause-effect chain that exists
// at runtime across *two* buses. Each vehicle carries its own five-layer
// coordinator; vehicle "beta" is attacked mid-run (message storm from its
// perception component), is contained by its own network layer, and joins
// the platoon consensus with degraded sensing.
//
// Before the sa::scenario builder, a scenario of this shape (3 vehicles x
// 2 buses x gateway x layer stack x platoon substrate) was ~600 lines of
// hand-wired assembly; it is the kind of composition the builder exists for.
// Adding `.domains(n)` to the builder would shard the three vehicles across
// n ECU domains (domain 0 on the calling thread, n - 1 worker threads) with
// identical results — tests/test_sharded.cpp runs this scenario's shape
// (scenario::presets) at 1/2/4 domains and locks the counters in. This
// example keeps the default single domain.
//
// Build & run:  ./build/examples/platoon_dual_bus

#include <cstdio>

#include "scenario/scenario_builder.hpp"

using namespace sa;
using sim::Duration;

namespace {

constexpr std::uint32_t kObjectFrameId = 0x120;
constexpr const char* kVehicles[] = {"alpha", "beta", "gamma"};

void declare_vehicle(scenario::ScenarioBuilder& builder, const std::string& name) {
    // Raw CAN chain: a periodic TX task in the sensor zone, a sporadic brake
    // task in the actuation zone released by the forwarded frames.
    rte::RtTaskConfig obj_tx;
    obj_tx.name = "obj_tx";
    obj_tx.priority = 100;
    obj_tx.period = Duration::ms(20);
    obj_tx.wcet = Duration::us(150);
    obj_tx.randomize_exec = false;
    rte::RtTaskConfig brake_apply;
    brake_apply.name = "brake_apply";
    brake_apply.priority = 100;
    brake_apply.period = Duration::zero(); // sporadic: released by CAN RX
    brake_apply.wcet = Duration::us(80);
    brake_apply.randomize_exec = false;

    builder.vehicle(name)
        .ecu({"zone_front", 1.0, 0.75, model::Asil::D, "engine_bay", "main"})
        .ecu({"zone_rear", 1.0, 0.75, model::Asil::D, "trunk", "main"})
        .can_bus({"can_sense", 500'000, 0.6})
        .can_bus({"can_act", 250'000, 0.6})
        .can_gateway({"gw", {{"can_sense", "can_act", kObjectFrameId, 0x7F0}},
                      Duration::us(50)})
        .contracts(R"(
            component perception {
              asil C;
              security_level 1;
              task track { wcet 2ms; period 20ms; }
              provides service object_list { max_rate 100/s; }
              message objects { payload 8; period 20ms; bus can_sense; }
              pin ecu zone_front;
            }
            component brake_ctrl {
              asil D;
              security_level 2;
              task control { wcet 400us; period 10ms; deadline 8ms; }
              provides service brake_cmd { max_rate 300/s; min_client_level 1; }
              message brake { payload 4; period 10ms; bus can_act; }
              pin ecu zone_rear;
            }
            component acc_app {
              asil C;
              security_level 1;
              task plan { wcet 1ms; period 20ms; }
              requires service object_list;
              requires service brake_cmd;
            }
        )")
        .rt_task("zone_front", obj_tx)
        .rt_task("zone_rear", brake_apply)
        .can_tx_on_completion("zone_front", "obj_tx", "can_sense",
                              can::CanFrame::make(kObjectFrameId, {1, 2, 3, 4}))
        .can_rx_activation("zone_rear", "brake_apply", "can_act", kObjectFrameId, 0x7F0)
        .rate_ids(Duration::ms(100), /*default_bound=*/400.0)
        .skill_graph("acc")
        .full_layer_stack()
        .self_model(Duration::ms(500));
}

} // namespace

int main() {
    scenario::ScenarioBuilder builder(2026);
    for (const char* name : kVehicles) {
        declare_vehicle(builder, name);
    }
    builder.trust("alpha", 14)
        .trust("beta", 14)
        .trust("gamma", 14)
        .v2v({}) // no base loss, 20 ms latency
        // t = 1 s: beta's perception component is compromised and storms the
        // brake service; beta's own IDS + network layer must contain it.
        .at(Duration::sec(1), [](scenario::Scenario& s) {
            auto& beta = s.vehicle("beta");
            beta.rte().access().grant("perception", "brake_cmd");
            beta.faults().compromise_with_message_storm("perception", "brake_cmd",
                                                        Duration::ms(2));
        });
    auto scenario = builder.build();

    // Cooperative awareness over V2V: every vehicle beacons its speed.
    for (const char* name : kVehicles) {
        scenario->v2v().attach(name, scenario->vehicle(name).simulator(),
                               [](const v2v::Frame&, double) {});
    }
    int beacon_slot = 0;
    for (const char* name : kVehicles) {
        scenario->simulator().schedule_periodic(
            Duration::ms(100),
            [&v2v = scenario->v2v(), name] {
                v2v.transmit(v2v::Medium::cam(name, 0.0, 22.0));
            },
            Duration::ms(10 * ++beacon_slot));
    }

    std::printf("three-vehicle platoon, dual-bus zonal architecture per vehicle\n");
    std::printf("(sensor zone -> gateway -> actuation zone; storm on beta at t=1s)\n\n");
    scenario->run(Duration::sec(3));

    bool chains_alive = true;
    for (const char* name : kVehicles) {
        auto& v = scenario->vehicle(name);
        const auto& gw = v.bus_gateway("gw");
        const auto& rx = v.can_endpoint("zone_rear", "can_act");
        std::printf("%s:\n", name);
        std::printf("  gateway: %llu frame(s) forwarded can_sense -> can_act, "
                    "%llu dropped\n",
                    static_cast<unsigned long long>(gw.frames_forwarded()),
                    static_cast<unsigned long long>(gw.frames_dropped()));
        std::printf("  actuation zone: %llu brake activation(s) from forwarded "
                    "frames\n",
                    static_cast<unsigned long long>(rx.activations()));
        std::printf("  perception state: %s | problems handled: %llu | self: %s\n",
                    rte::to_string(v.rte().component("perception").state()),
                    static_cast<unsigned long long>(v.coordinator().problems_handled()),
                    v.self_model().latest().str().c_str());
        chains_alive = chains_alive && gw.frames_forwarded() > 0 && rx.activations() > 0;
    }
    std::printf("\nV2V: %llu CAM(s) transmitted, %llu delivered\n",
                static_cast<unsigned long long>(scenario->v2v().transmissions()),
                static_cast<unsigned long long>(scenario->v2v().deliveries()));

    // Platoon formation: beta joins with degraded sensing after containment.
    const bool beta_contained = scenario->vehicle("beta").rte().component("perception")
                                    .state() == rte::ComponentState::Contained;
    const auto agreement = scenario->form_platoon(
        {{"alpha", 0.90, platoon::safe_speed_for_quality(0.90), 10.0, false},
         {"beta", beta_contained ? 0.45 : 0.90,
          platoon::safe_speed_for_quality(beta_contained ? 0.45 : 0.90), 14.0, false},
         {"gamma", 0.85, platoon::safe_speed_for_quality(0.85), 10.0, false}});
    std::printf("\nplatoon:");
    for (const auto& m : agreement.members) {
        std::printf(" %s", m.c_str());
    }
    std::printf("\n  common speed %.1f m/s (safe: %s), min gap %.1f m, %d round(s)\n",
                agreement.common_speed_mps, agreement.speed_safe ? "yes" : "NO",
                agreement.min_gap_m, agreement.speed_consensus.rounds);

    const bool ok = chains_alive && beta_contained && agreement.formed;
    std::printf("\nplatoon_dual_bus %s.\n", ok ? "finished" : "FAILED");
    return ok ? 0 : 1;
}
