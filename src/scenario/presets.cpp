#include "scenario/presets.hpp"

#include "monitor/anomaly_kinds.hpp"
#include "skills/capability_registry.hpp"
#include "util/assert.hpp"

namespace sa::scenario::presets {

void declare_dual_bus_platoon_vehicle(ScenarioBuilder& builder,
                                      const std::string& name) {
    rte::RtTaskConfig obj_tx;
    obj_tx.name = "obj_tx";
    obj_tx.priority = 100;
    obj_tx.period = sim::Duration::ms(20);
    obj_tx.wcet = sim::Duration::us(150);
    obj_tx.randomize_exec = false;
    rte::RtTaskConfig brake_apply;
    brake_apply.name = "brake_apply";
    brake_apply.priority = 100;
    brake_apply.period = sim::Duration::zero(); // sporadic: released by CAN RX
    brake_apply.wcet = sim::Duration::us(80);
    brake_apply.randomize_exec = false;

    builder.vehicle(name)
        .ecu({"zone_front", 1.0, 0.75, model::Asil::D, "engine_bay", "main"})
        .ecu({"zone_rear", 1.0, 0.75, model::Asil::D, "trunk", "main"})
        .can_bus({"can_sense", 500'000, 0.6})
        .can_bus({"can_act", 250'000, 0.6})
        .can_gateway({"gw",
                      {{"can_sense", "can_act", kDualBusObjectFrameId, 0x7F0}},
                      sim::Duration::us(50)})
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
        )")
        .rt_task("zone_front", obj_tx)
        .rt_task("zone_rear", brake_apply)
        .can_tx_on_completion(
            "zone_front", "obj_tx", "can_sense",
            can::CanFrame::make(kDualBusObjectFrameId, {1, 2, 3, 4}))
        .can_rx_activation("zone_rear", "brake_apply", "can_act",
                           kDualBusObjectFrameId, 0x7F0)
        .rate_ids(sim::Duration::ms(100), 400.0)
        .skill_graph("acc")
        .full_layer_stack()
        .self_model(sim::Duration::ms(500));
}

void declare_platoon_follow_vehicle(ScenarioBuilder& builder,
                                    const std::string& name) {
    declare_dual_bus_platoon_vehicle(builder, name);
    builder.vehicle(name)
        .skill_graph("platoon_follow")
        .degradation_policy(skills::DegradationPolicy{});
}

learn::LearnedMonitorConfig drift_demo_model(const DriftDemoConfig& config) {
    learn::LearnedMonitorConfig learned;
    learned.warmup = config.warmup;
    learned.score_threshold = config.score_threshold;
    learned.seed = config.seed;
    learned.state.band_width = config.band_width;
    // Freeze the per-metric baselines at 20s (400 samples at the 50ms
    // pump), well past the ACC loop's settling transient: the frozen mean
    // then sits on the noise-shifted equilibrium and the transient inflates
    // sigma a little, so the clean operating point reads z ~ 0 instead of
    // hovering against a band boundary.
    learned.metric.warmup_samples = 400;
    return learned;
}

void declare_drift_demo(ScenarioBuilder& builder, const DriftDemoConfig& config) {
    SA_REQUIRE(DriftDemoConfig::kDriftStart.count_ns() >= config.warmup.count_ns(),
               "drift must start after the learned monitor's warm-up");

    builder.domains(config.domains);
    builder.duration_hint(config.duration);

    VehicleBuilder& ego = builder.vehicle("ego");

    // Steady-state following from t=0: ego starts at the ACC's target gap
    // for the common speed, so the learned baseline is trained on the
    // regulated regime rather than an approach transient.
    vehicle::ScenarioConfig driving;
    driving.ego_speed_mps = 22.0;
    driving.initial_gap_m =
        vehicle::AccController::kMinGapM +
        vehicle::AccController::kInitialTimeGapS * driving.ego_speed_mps;
    ego.driving(driving);

    vehicle::SensorConfig radar;
    radar.type = vehicle::SensorType::Radar;
    radar.name = "radar";
    radar.noise_sigma_m = 0.3;
    radar.dropout_prob = 0.0; // see the camera note below
    monitor::SensorQualityConfig radar_quality;
    radar_quality.nominal_noise_sigma = radar.noise_sigma_m;
    ego.sensor(radar, radar_quality);

    vehicle::SensorConfig camera;
    camera.type = vehicle::SensorType::Camera;
    camera.name = "camera";
    camera.max_range_m = 120.0;
    camera.noise_sigma_m = 0.4;
    // No dropout: the demo's premise is that every threshold monitor stays
    // quiet. Even a 1% dropout occasionally blanks one of the two samples in
    // the quality monitor's 100ms availability window and trips
    // sensor_degraded — a distraction the payoff claim must exclude.
    camera.dropout_prob = 0.0;
    monitor::SensorQualityConfig camera_quality;
    camera_quality.nominal_noise_sigma = camera.noise_sigma_m;
    ego.sensor(camera, camera_quality);

    ego.skill_graph("acc");

    // The only route from "the joint state looks wrong" to the ability
    // graph: cap the radar capability's accuracy when the learned monitor
    // alarms. Everything downstream (propagation into acc_driving, tactic
    // planning, self-model) is the standard degradation flow.
    skills::DegradationPolicy policy;
    skills::AlarmBinding rule;
    rule.anomaly_kind = monitor::kinds::kLearnedAbnormality;
    rule.capability = skills::acc::kRadar;
    rule.quality = skills::QualityKind::Accuracy;
    rule.degraded_value = DriftDemoConfig::kDegradedRadarLevel;
    policy.on_anomaly(rule);
    ego.degradation_policy(std::move(policy));

    ego.learned_monitor(drift_demo_model(config));

    // Stepwise calibration drift on the radar (sensor index 0): each step
    // adds drift_step_m of bias. No threshold is ever crossed — the quality
    // monitor sees unchanged availability/validity/noise — but the joint
    // metric state slides into unvisited territory.
    for (int step = 0; step < DriftDemoConfig::kDriftSteps; ++step) {
        const sim::Duration when = DriftDemoConfig::kDriftStart +
                                   DriftDemoConfig::kDriftStepPeriod * step;
        const double bias = config.drift_step_m * (step + 1);
        builder.at(when, [bias](Scenario& scenario) {
            scenario.vehicle("ego").driving().set_sensor_bias(0, bias);
        });
    }
}

ScenarioBuilder make_drift_demo(const DriftDemoConfig& config) {
    ScenarioBuilder builder(config.seed);
    declare_drift_demo(builder, config);
    return builder;
}

} // namespace sa::scenario::presets
