// Tests for the vehicle substrate: dynamics, weather-dependent sensors, ACC,
// brake-by-wire, closed-loop scenarios, route planning.

#include <gtest/gtest.h>

#include "vehicle/acc_controller.hpp"
#include "vehicle/brake_by_wire.hpp"
#include "vehicle/longitudinal.hpp"
#include "vehicle/route_planner.hpp"
#include "vehicle/sensor.hpp"
#include "vehicle/vehicle_sim.hpp"
#include "vehicle/weather.hpp"

namespace {

using namespace sa;
using namespace sa::vehicle;
using sim::Duration;
using sim::Time;

// --- Longitudinal dynamics -----------------------------------------------------

TEST(Longitudinal, AcceleratesUnderThrottle) {
    LongitudinalModel car;
    for (int i = 0; i < 100; ++i) {
        car.step(0.1, 1.0, 0.0);
    }
    EXPECT_GT(car.speed_mps(), 15.0);
    EXPECT_GT(car.position_m(), 50.0);
}

TEST(Longitudinal, BrakesToStandstill) {
    LongitudinalModel car;
    car.set_speed(30.0);
    for (int i = 0; i < 100; ++i) {
        car.step(0.1, 0.0, 1.0);
    }
    EXPECT_DOUBLE_EQ(car.speed_mps(), 0.0);
}

TEST(Longitudinal, DegradedBrakesStopLater) {
    LongitudinalModel full;
    LongitudinalModel degraded;
    full.set_speed(30.0);
    degraded.set_speed(30.0);
    double full_stop = 0.0;
    double degraded_stop = 0.0;
    for (int i = 0; i < 600; ++i) {
        if (full.speed_mps() > 0.0) {
            full.step(0.05, 0.0, 1.0, 1.0);
            full_stop = full.position_m();
        }
        if (degraded.speed_mps() > 0.0) {
            degraded.step(0.05, 0.0, 1.0, 0.5);
            degraded_stop = degraded.position_m();
        }
    }
    EXPECT_GT(degraded_stop, full_stop * 1.4);
}

TEST(Longitudinal, StoppingDistanceQuadraticInSpeed) {
    LongitudinalModel car;
    const double d20 = car.stopping_distance(20.0, 1.0);
    const double d40 = car.stopping_distance(40.0, 1.0);
    EXPECT_NEAR(d40 / d20, 4.0, 0.01);
    EXPECT_GT(car.stopping_distance(20.0, 0.5), d20 * 1.9);
}

TEST(Longitudinal, TerminalVelocityUnderDrag) {
    LongitudinalModel car;
    for (int i = 0; i < 3000; ++i) {
        car.step(0.1, 1.0, 0.0);
    }
    const double v1 = car.speed_mps();
    car.step(0.1, 1.0, 0.0);
    EXPECT_NEAR(car.speed_mps(), v1, 0.01); // settled at terminal velocity
}

// --- Weather & sensors ------------------------------------------------------------

TEST(Weather, VisibilityDropsWithFog) {
    EXPECT_GT(visibility_m(WeatherCondition::clear()), 1500.0);
    EXPECT_LT(visibility_m(WeatherCondition::dense_fog()), 100.0);
}

TEST(Sensor, RangeShrinksWithFogPerType) {
    const WeatherCondition fog = WeatherCondition::dense_fog();
    RangeSensor radar(SensorConfig{SensorType::Radar, "r", 150.0, 0.3, 0.0});
    RangeSensor lidar(SensorConfig{SensorType::Lidar, "l", 120.0, 0.1, 0.0});
    RangeSensor camera(SensorConfig{SensorType::Camera, "c", 100.0, 0.5, 0.0});
    // Radar keeps most range; camera loses nearly everything.
    EXPECT_GT(radar.effective_range_m(fog) / 150.0, 0.8);
    EXPECT_LT(camera.effective_range_m(fog) / 100.0, 0.25);
    EXPECT_LT(lidar.effective_range_m(fog) / 120.0, 0.5);
}

TEST(Sensor, OutOfRangeInvalid) {
    RangeSensor radar(SensorConfig{SensorType::Radar, "r", 100.0, 0.1, 0.0});
    RandomEngine rng(1);
    const auto m = radar.measure(150.0, WeatherCondition::clear(), rng);
    EXPECT_FALSE(m.valid);
}

TEST(Sensor, NoiseGrowsWithFog) {
    RangeSensor camera(SensorConfig{SensorType::Camera, "c", 100.0, 0.5, 0.0});
    EXPECT_GT(camera.effective_noise_m(WeatherCondition::dense_fog()),
              2.0 * camera.effective_noise_m(WeatherCondition::clear()));
}

/// Parameterized: dropout probability increases monotonically with fog for
/// every sensor type.
class SensorFogSweep : public ::testing::TestWithParam<SensorType> {};

TEST_P(SensorFogSweep, DropoutMonotoneInFog) {
    RangeSensor sensor(SensorConfig{GetParam(), "s", 120.0, 0.2, 0.01});
    double last = -1.0;
    for (double fog = 0.0; fog <= 1.0; fog += 0.25) {
        WeatherCondition w;
        w.fog = fog;
        const double p = sensor.effective_dropout(w);
        EXPECT_GE(p, last);
        last = p;
    }
}

TEST_P(SensorFogSweep, MeasurementsUnbiasedWithinRange) {
    RangeSensor sensor(SensorConfig{GetParam(), "s", 200.0, 0.5, 0.0});
    RandomEngine rng(42);
    RunningStats err;
    for (int i = 0; i < 2000; ++i) {
        const auto m = sensor.measure(50.0, WeatherCondition::clear(), rng);
        if (m.valid) {
            err.add(m.range_m - 50.0);
        }
    }
    ASSERT_GT(err.count(), 1000u);
    EXPECT_NEAR(err.mean(), 0.0, 0.1);
}

INSTANTIATE_TEST_SUITE_P(Types, SensorFogSweep,
                         ::testing::Values(SensorType::Radar, SensorType::Lidar,
                                           SensorType::Camera));

// --- ACC controller ----------------------------------------------------------------

TEST(Acc, AcceleratesTowardsSetSpeedWithoutTarget) {
    AccController acc;
    const auto cmd = acc.step(10.0, std::nullopt, std::nullopt);
    EXPECT_GT(cmd.throttle, 0.0);
    EXPECT_DOUBLE_EQ(cmd.brake, 0.0);
    EXPECT_FALSE(cmd.following);
}

TEST(Acc, BrakesWhenGapTooSmall) {
    AccController acc;
    // At 30 m/s the desired gap is 5 + 1.8*30 = 59 m; actual 20 m.
    const auto cmd = acc.step(30.0, 20.0, 5.0);
    EXPECT_GT(cmd.brake, 0.0);
    EXPECT_TRUE(cmd.following);
}

TEST(Acc, SpeedLimitClampsSetSpeed) {
    AccController acc;
    acc.set_speed_limit(15.0);
    EXPECT_DOUBLE_EQ(acc.effective_set_speed(), 15.0);
    const auto cmd = acc.step(20.0, std::nullopt, std::nullopt);
    EXPECT_GT(cmd.brake, 0.0); // slowing down towards the clamp
    acc.set_speed_limit(std::nullopt);
    EXPECT_DOUBLE_EQ(acc.effective_set_speed(), 30.0);
}

TEST(Acc, ConservativeWhenBothDemandsPresent) {
    AccController acc;
    // Far below set speed but dangerously close: gap control must win.
    const auto cmd = acc.step(10.0, 8.0, 3.0);
    EXPECT_GT(cmd.brake, 0.0);
}

// --- Brake by wire -----------------------------------------------------------------

TEST(BrakeByWire, EffectivenessBySplit) {
    BrakeByWire brakes;
    EXPECT_DOUBLE_EQ(brakes.effectiveness(), 1.0);
    brakes.set_rear_available(false);
    EXPECT_NEAR(brakes.effectiveness(), 0.65, 1e-9);
    brakes.set_drivetrain_assist(true);
    EXPECT_NEAR(brakes.effectiveness(), 0.77, 1e-9);
    brakes.set_front_available(false);
    EXPECT_NEAR(brakes.effectiveness(), 0.12, 1e-9);
}

TEST(BrakeByWire, AbilityLevelTracksEffectiveness) {
    BrakeByWire brakes;
    brakes.set_rear_available(false);
    EXPECT_NEAR(brakes.ability_level(), 0.65, 1e-9);
}

// --- Closed-loop scenario -------------------------------------------------------------

TEST(VehicleSim, FollowsLeadWithoutCollision) {
    sim::Simulator sim(7);
    ScenarioConfig cfg;
    cfg.initial_gap_m = 50.0;
    cfg.ego_speed_mps = 28.0;
    cfg.lead_speed_mps = 22.0;
    VehicleSim scenario(sim, cfg);
    scenario.add_sensor(SensorConfig{SensorType::Radar, "radar", 150.0, 0.3, 0.002});
    scenario.start();
    sim.run_until(Time(Duration::sec(60).count_ns()));

    EXPECT_FALSE(scenario.collided());
    EXPECT_GT(scenario.gap_stats().min(), 5.0);
    // Settled near the lead's speed.
    EXPECT_NEAR(scenario.ego_speed(), 22.0, 2.0);
    EXPECT_GT(scenario.valid_fusions(), scenario.control_steps() / 2);
}

TEST(VehicleSim, LeadBrakingHandled) {
    sim::Simulator sim(7);
    ScenarioConfig cfg;
    cfg.initial_gap_m = 60.0;
    cfg.ego_speed_mps = 25.0;
    cfg.lead_speed_mps = 25.0;
    VehicleSim scenario(sim, cfg);
    scenario.add_sensor(SensorConfig{SensorType::Radar, "radar", 150.0, 0.3, 0.002});
    // Lead brakes hard to 8 m/s after 10 s.
    scenario.set_lead_profile([](Time t) {
        return t.s() < 10.0 ? 25.0 : 8.0;
    });
    scenario.start();
    sim.run_until(Time(Duration::sec(60).count_ns()));
    EXPECT_FALSE(scenario.collided());
    EXPECT_NEAR(scenario.ego_speed(), 8.0, 2.0);
}

TEST(VehicleSim, DenseFogBlindsCameraOnlyVehicle) {
    sim::Simulator sim(7);
    ScenarioConfig cfg;
    cfg.initial_gap_m = 60.0;
    VehicleSim scenario(sim, cfg);
    scenario.set_weather(WeatherCondition::dense_fog());
    scenario.add_sensor(SensorConfig{SensorType::Camera, "camera", 100.0, 0.5, 0.005});
    scenario.start();
    sim.run_until(Time(Duration::sec(20).count_ns()));
    // Effective camera range in dense fog is ~19 m. The closed loop settles
    // into an unsafe pattern: accelerate blind, glimpse the lead at the edge
    // of visibility, brake, repeat — blind most of the time and far too
    // close whenever it does see something.
    EXPECT_GT(scenario.blind_steps(), scenario.control_steps() / 2);
    EXPECT_LT(scenario.gap_stats().min(), 25.0);
}

TEST(VehicleSim, RadarKeepsTrackingInFog) {
    sim::Simulator sim(7);
    ScenarioConfig cfg;
    cfg.initial_gap_m = 60.0;
    VehicleSim scenario(sim, cfg);
    scenario.set_weather(WeatherCondition::dense_fog());
    scenario.add_sensor(SensorConfig{SensorType::Radar, "radar", 150.0, 0.3, 0.002});
    scenario.start();
    sim.run_until(Time(Duration::sec(20).count_ns()));
    EXPECT_GT(scenario.valid_fusions(), scenario.control_steps() * 3 / 4);
    EXPECT_FALSE(scenario.collided());
}

TEST(VehicleSim, QualityMonitorSeesFogDegradation) {
    sim::Simulator sim(7);
    ScenarioConfig cfg;
    cfg.initial_gap_m = 45.0;
    VehicleSim scenario(sim, cfg);
    const auto cam =
        scenario.add_sensor(SensorConfig{SensorType::Camera, "camera", 100.0, 0.5, 0.005});
    monitor::SensorQualityConfig mq;
    mq.nominal_noise_sigma = 0.6;
    monitor::SensorQualityMonitor quality(sim, "camera", mq);
    scenario.attach_quality_monitor(cam, quality);
    quality.start();
    scenario.start();

    sim.run_until(Time(Duration::sec(10).count_ns()));
    const double clear_quality = quality.quality();
    EXPECT_GT(clear_quality, 0.8);

    scenario.set_weather(WeatherCondition::dense_fog());
    sim.run_until(Time(Duration::sec(30).count_ns()));
    EXPECT_LT(quality.quality(), 0.3);
    EXPECT_GT(quality.anomalies_raised(), 0u);
}

TEST(VehicleSim, DegradedRearBrakeStillStopsWithMargin) {
    // §V compensation story: rear brake lost, speed reduced, drivetrain
    // assist engaged -> the vehicle still manages the lead's hard stop.
    sim::Simulator sim(7);
    ScenarioConfig cfg;
    cfg.initial_gap_m = 70.0;
    cfg.ego_speed_mps = 20.0;
    cfg.lead_speed_mps = 20.0;
    VehicleSim scenario(sim, cfg);
    scenario.add_sensor(SensorConfig{SensorType::Radar, "radar", 150.0, 0.3, 0.002});
    scenario.brakes().set_rear_available(false);
    scenario.brakes().set_drivetrain_assist(true);
    scenario.acc().set_speed_limit(15.0);
    scenario.acc().set_time_gap(2.6);
    scenario.set_lead_profile([](Time t) { return t.s() < 15.0 ? 20.0 : 0.0; });
    scenario.start();
    sim.run_until(Time(Duration::sec(60).count_ns()));
    EXPECT_FALSE(scenario.collided());
    EXPECT_GT(scenario.gap_stats().min(), 2.0);
}

// --- Route planner ----------------------------------------------------------------------

TEST(RoutePlanner, EdgeCostArithmetic) {
    RoadEdge edge{"a", "b", 60.0, 120.0, 0.5, 0.5};
    EXPECT_DOUBLE_EQ(edge.nominal_minutes(), 30.0);
    EXPECT_DOUBLE_EQ(edge.worst_case_minutes(), 60.0);
    EXPECT_DOUBLE_EQ(edge.expected_minutes(), 45.0);
}

TEST(RoutePlanner, ImpassableEdgePenalized) {
    RoadEdge blocked{"a", "b", 10.0, 60.0, 0.3, 0.0};
    EXPECT_GT(blocked.expected_minutes(), blocked.nominal_minutes() + 60.0);
}

TEST(RoutePlanner, FindsShortestNominalRoute) {
    auto planner = make_alpine_example(0.0); // summer: no risk anywhere
    const auto route = planner.plan("home", "destination", 0.0);
    ASSERT_TRUE(route.found);
    // Pass route: 20+15+15 km vs valley 105 km -> pass wins.
    ASSERT_GE(route.waypoints.size(), 3u);
    EXPECT_EQ(route.waypoints[1], "pass_foot");
}

TEST(RoutePlanner, WinterDetourChosenBySelfAwarePlanner) {
    // The paper's example: "whether it plans a (possibly shorter) route
    // across an alpine pass in winter or whether it is advantageous to take
    // a longer detour without risking degraded performance."
    auto planner = make_alpine_example(1.0);
    const auto blind = planner.plan("home", "destination", 0.0);
    const auto aware = planner.plan("home", "destination", 1.0);
    ASSERT_TRUE(blind.found);
    ASSERT_TRUE(aware.found);
    EXPECT_EQ(blind.waypoints[1], "pass_foot");   // weather-blind: short route
    EXPECT_EQ(aware.waypoints[1], "valley_a");    // self-aware: detour
    // The detour costs more nominally but much less in expectation.
    EXPECT_GT(aware.nominal_minutes, blind.nominal_minutes);
    EXPECT_LT(aware.expected_minutes, blind.expected_minutes);
}

TEST(RoutePlanner, RiskAversionMonotone) {
    auto planner = make_alpine_example(0.8);
    double last_expected = 1e18;
    for (double ra : {0.0, 0.5, 1.0, 1.5, 2.0}) {
        const auto route = planner.plan("home", "destination", ra);
        ASSERT_TRUE(route.found);
        // Expected time of the chosen route never increases as the planner
        // becomes more risk-aware.
        EXPECT_LE(route.expected_minutes, last_expected + 1e-9);
        last_expected = route.expected_minutes;
    }
}

TEST(RoutePlanner, UnreachableReturnsNotFound) {
    RoutePlanner planner;
    planner.add_road(RoadEdge{"a", "b", 1.0, 50.0, 0.0, 1.0});
    const auto route = planner.plan("a", "z");
    EXPECT_FALSE(route.found);
    EXPECT_TRUE(route.waypoints.empty());
}

} // namespace
