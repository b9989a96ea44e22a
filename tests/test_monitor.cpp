// Tests for the monitoring framework: each monitor type, the manager's
// aggregation/metric store/ingest tap, the anomaly-kind catalogue, and the
// monitoring-overhead accounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "monitor/anomaly_kinds.hpp"
#include "monitor/budget_monitor.hpp"
#include "monitor/deadline_monitor.hpp"
#include "monitor/heartbeat_monitor.hpp"
#include "monitor/manager.hpp"
#include "monitor/range_monitor.hpp"
#include "monitor/rate_monitor.hpp"
#include "monitor/sensor_quality_monitor.hpp"
#include "rte/rte.hpp"
#include "util/assert.hpp"
#include "util/string_util.hpp"

namespace {

using namespace sa;
using namespace sa::monitor;
using sim::Duration;
using sim::Time;

rte::RtTaskConfig fixed_task(const std::string& name, int prio, Duration period,
                             Duration wcet) {
    rte::RtTaskConfig t;
    t.name = name;
    t.priority = prio;
    t.period = period;
    t.wcet = wcet;
    t.bcet = wcet;
    t.randomize_exec = false;
    return t;
}

// --- HeartbeatMonitor -----------------------------------------------------------

TEST(Heartbeat, DetectsSilenceAndRecovery) {
    sim::Simulator sim;
    HeartbeatMonitor hb(sim, "pulse", Duration::ms(50), Duration::ms(10));
    std::vector<std::string> kinds;
    hb.anomaly().subscribe([&](const Anomaly& a) { kinds.push_back(a.kind); });
    hb.start();

    // Beat for 100ms, go silent for 200ms, then beat again.
    auto beats = sim.schedule_periodic(Duration::ms(20), [&] { hb.beat(); });
    sim.run_until(Time(Duration::ms(100).count_ns()));
    EXPECT_TRUE(hb.alive());
    sim.cancel_periodic(beats);
    sim.run_until(Time(Duration::ms(300).count_ns()));
    EXPECT_FALSE(hb.alive());
    hb.beat();
    EXPECT_TRUE(hb.alive());

    ASSERT_EQ(kinds.size(), 2u);
    EXPECT_EQ(kinds[0], "heartbeat_loss");
    EXPECT_EQ(kinds[1], "heartbeat_recovered");
}

TEST(Heartbeat, AttachToComponentTasks) {
    sim::Simulator sim;
    rte::Rte rte(sim);
    rte.add_ecu(rte::EcuConfig{"ecu0", {1.0}, {}});
    rte::RteConfig cfg;
    rte::ComponentSpec spec;
    spec.name = "beater";
    spec.ecu = "ecu0";
    spec.tasks.push_back(fixed_task("beater.main", 1, Duration::ms(10), Duration::us(100)));
    cfg.components.push_back(spec);
    rte.apply(cfg);
    rte.start();

    HeartbeatMonitor hb(sim, "beater", Duration::ms(50));
    hb.attach(rte.component("beater"));
    hb.start();
    sim.run_until(Time(Duration::ms(200).count_ns()));
    EXPECT_TRUE(hb.alive());

    rte.component("beater").fail();
    sim.run_until(Time(Duration::ms(400).count_ns()));
    EXPECT_FALSE(hb.alive());
}

// --- DeadlineMonitor ---------------------------------------------------------------

TEST(Deadline, RaisesPerMissAndRatioAlarm) {
    sim::Simulator sim;
    rte::FixedPriorityScheduler sched(sim, "ecu");
    auto t = fixed_task("t", 1, Duration::ms(10), Duration::ms(6));
    t.deadline = Duration::ms(5); // always missed
    sched.add_task(t);
    DeadlineMonitor mon(sim, sched, 20);
    std::vector<std::string> kinds;
    mon.anomaly().subscribe([&](const Anomaly& a) { kinds.push_back(a.kind); });
    sched.start();
    sim.run_until(Time(Duration::ms(300).count_ns()));
    EXPECT_GT(mon.misses(), 10u);
    EXPECT_GT(mon.miss_ratio(), 0.9);
    EXPECT_NE(std::find(kinds.begin(), kinds.end(), "miss_ratio_high"), kinds.end());
}

TEST(Deadline, QuietOnHealthySystem) {
    sim::Simulator sim;
    rte::FixedPriorityScheduler sched(sim, "ecu");
    sched.add_task(fixed_task("t", 1, Duration::ms(10), Duration::ms(1)));
    DeadlineMonitor mon(sim, sched);
    sched.start();
    sim.run_until(Time(Duration::ms(300).count_ns()));
    EXPECT_EQ(mon.misses(), 0u);
    EXPECT_EQ(mon.anomalies_raised(), 0u);
}

// --- BudgetMonitor ------------------------------------------------------------------

TEST(Budget, ObserveModeOnlyRecords) {
    sim::Simulator sim;
    rte::FixedPriorityScheduler sched(sim, "ecu");
    const auto id = sched.add_task(fixed_task("t", 1, Duration::ms(10), Duration::ms(1)));
    BudgetMonitor mon(sim, sched);
    mon.set_mode(BudgetMode::Observe);
    mon.set_budget(id, Duration::us(500)); // everything violates
    sched.start();
    sim.run_until(Time(Duration::ms(100).count_ns()));
    EXPECT_GT(mon.violations(), 5u);
    EXPECT_EQ(mon.anomalies_raised(), 0u);
    EXPECT_EQ(mon.observed_max(id), Duration::ms(1));
}

TEST(Budget, WarnModeRaises) {
    sim::Simulator sim;
    rte::FixedPriorityScheduler sched(sim, "ecu");
    const auto id = sched.add_task(fixed_task("t", 1, Duration::ms(10), Duration::ms(1)));
    BudgetMonitor mon(sim, sched);
    mon.set_mode(BudgetMode::Warn);
    mon.set_budget(id, Duration::us(500));
    sched.start();
    sim.run_until(Time(Duration::ms(50).count_ns()));
    EXPECT_GT(mon.anomalies_raised(), 0u);
}

TEST(Budget, EnforceModeInvokesAction) {
    sim::Simulator sim;
    rte::FixedPriorityScheduler sched(sim, "ecu");
    const auto id = sched.add_task(fixed_task("t", 1, Duration::ms(10), Duration::ms(2)));
    BudgetMonitor mon(sim, sched);
    mon.set_mode(BudgetMode::Enforce);
    mon.set_budget(id, Duration::ms(1));
    int enforcements = 0;
    mon.set_enforcement_action(
        [&](rte::TaskId task, const rte::JobRecord&) {
            ++enforcements;
            sched.remove_task(task); // kill the offender
        });
    sched.start();
    sim.run_until(Time(Duration::ms(100).count_ns()));
    EXPECT_EQ(enforcements, 1);
    EXPECT_FALSE(sched.has_task(id));
}

TEST(Budget, WithinBudgetStaysQuiet) {
    sim::Simulator sim;
    rte::FixedPriorityScheduler sched(sim, "ecu");
    const auto id = sched.add_task(fixed_task("t", 1, Duration::ms(10), Duration::ms(1)));
    BudgetMonitor mon(sim, sched);
    mon.set_budget(id, Duration::ms(2));
    sched.start();
    sim.run_until(Time(Duration::ms(100).count_ns()));
    EXPECT_EQ(mon.violations(), 0u);
}

// --- RangeMonitor -------------------------------------------------------------------

TEST(Range, ViolationAndRecoveryOnce) {
    sim::Simulator sim;
    RangeMonitor mon(sim, "vitals");
    mon.set_bounds("tire_pressure", 1.8, 3.2);
    std::vector<std::string> kinds;
    mon.anomaly().subscribe([&](const Anomaly& a) { kinds.push_back(a.kind); });

    EXPECT_TRUE(mon.sample("tire_pressure", 2.5));
    EXPECT_FALSE(mon.sample("tire_pressure", 1.2));
    EXPECT_FALSE(mon.sample("tire_pressure", 1.1)); // still violating: no re-raise
    EXPECT_TRUE(mon.sample("tire_pressure", 2.2));  // recovery
    ASSERT_EQ(kinds.size(), 2u);
    EXPECT_EQ(kinds[0], "range_violation");
    EXPECT_EQ(kinds[1], "range_recovered");
    EXPECT_EQ(mon.violations(), 1u);
}

TEST(Range, UnconfiguredSignalAccepted) {
    sim::Simulator sim;
    RangeMonitor mon(sim, "vitals");
    EXPECT_TRUE(mon.sample("unknown", 1e9));
    EXPECT_EQ(mon.violations(), 0u);
}

// --- RateMonitor (IDS) ---------------------------------------------------------------

struct IdsRig {
    sim::Simulator sim;
    rte::AccessControl access;
    rte::ServiceRegistry services{sim, access};
};

TEST(RateIds, FlagsRateExcess) {
    IdsRig rig;
    rig.services.provide("victim", "brake_cmd", [](const rte::Message&) {});
    rig.access.grant("attacker", "brake_cmd");
    RateMonitor ids(rig.sim, rig.services, Duration::ms(100));
    ids.set_rate_bound("attacker", "brake_cmd", 100.0);
    std::vector<Anomaly> anomalies;
    ids.anomaly().subscribe([&](const Anomaly& a) { anomalies.push_back(a); });
    ids.start();

    const auto session = rig.services.open("attacker", "brake_cmd");
    ASSERT_TRUE(session.has_value());
    rig.sim.schedule_periodic(Duration::ms(1),
                              [&] { rig.services.call(*session, {0.0}); });
    rig.sim.run_until(Time(Duration::ms(500).count_ns()));

    ASSERT_FALSE(anomalies.empty());
    EXPECT_EQ(anomalies.front().kind, "rate_excess");
    EXPECT_EQ(anomalies.front().source, "attacker");
    EXPECT_EQ(anomalies.front().domain, Domain::Security);
    // 1000 msg/s against the bound of 100.
    EXPECT_NEAR(anomalies.front().magnitude, 10.0, 0.5);
}

TEST(RateIds, WithinBoundStaysQuiet) {
    IdsRig rig;
    rig.services.provide("victim", "s", [](const rte::Message&) {});
    rig.access.grant("client", "s");
    RateMonitor ids(rig.sim, rig.services, Duration::ms(100));
    ids.set_rate_bound("client", "s", 100.0);
    ids.start();
    const auto session = rig.services.open("client", "s");
    rig.sim.schedule_periodic(Duration::ms(50),
                              [&] { rig.services.call(*session, {}); });
    rig.sim.run_until(Time(Duration::ms(500).count_ns()));
    EXPECT_EQ(ids.anomalies_raised(), 0u);
}

TEST(RateIds, AccessProbeDetected) {
    IdsRig rig;
    rig.services.provide("victim", "secret", [](const rte::Message&) {});
    RateMonitor ids(rig.sim, rig.services, Duration::ms(100)); // probe at 3 denials
    std::vector<std::string> kinds;
    ids.anomaly().subscribe([&](const Anomaly& a) { kinds.push_back(a.kind); });
    for (int i = 0; i < 5; ++i) {
        (void)rig.services.open("prober", "secret");
    }
    ASSERT_EQ(kinds.size(), 1u); // raised exactly once at the threshold
    EXPECT_EQ(kinds[0], "access_probe");
}

TEST(RateIds, RecoveryAfterStormEnds) {
    IdsRig rig;
    rig.services.provide("victim", "s", [](const rte::Message&) {});
    rig.access.grant("c", "s");
    RateMonitor ids(rig.sim, rig.services, Duration::ms(100));
    ids.set_rate_bound("c", "s", 50.0);
    std::vector<std::string> kinds;
    ids.anomaly().subscribe([&](const Anomaly& a) { kinds.push_back(a.kind); });
    ids.start();
    const auto session = rig.services.open("c", "s");
    const auto storm = rig.sim.schedule_periodic(
        Duration::ms(2), [&] { rig.services.call(*session, {}); });
    rig.sim.run_until(Time(Duration::ms(300).count_ns()));
    rig.sim.cancel_periodic(storm);
    rig.sim.run_until(Time(Duration::ms(700).count_ns()));
    ASSERT_GE(kinds.size(), 2u);
    EXPECT_EQ(kinds.front(), "rate_excess");
    EXPECT_EQ(kinds.back(), "rate_recovered");
}

// --- SensorQualityMonitor --------------------------------------------------------------

TEST(SensorQuality, NominalStreamScoresHigh) {
    sim::Simulator sim;
    SensorQualityConfig cfg;
    cfg.nominal_noise_sigma = 0.3;
    SensorQualityMonitor mon(sim, "radar", cfg);
    mon.start();
    RandomEngine rng(5);
    sim.schedule_periodic(Duration::ms(50),
                          [&] { mon.sample(rng.normal(50.0, 0.3), true); });
    sim.run_until(Time(Duration::sec(3).count_ns()));
    EXPECT_GT(mon.quality(), 0.85);
    EXPECT_EQ(mon.anomalies_raised(), 0u);
}

TEST(SensorQuality, DropoutsDegradeAvailability) {
    sim::Simulator sim;
    SensorQualityConfig cfg;
    SensorQualityMonitor mon(sim, "camera", cfg);
    std::vector<std::string> kinds;
    mon.anomaly().subscribe([&](const Anomaly& a) { kinds.push_back(a.kind); });
    mon.start();
    RandomEngine rng(5);
    // Only every 4th expected sample arrives.
    sim.schedule_periodic(Duration::ms(200),
                          [&] { mon.sample(rng.normal(50.0, 0.1), true); });
    sim.run_until(Time(Duration::sec(3).count_ns()));
    // One sample per two evaluation windows against two expected per window:
    // availability alternates between 0 and 0.5.
    EXPECT_LE(mon.availability(), 0.5);
    EXPECT_LT(mon.quality(), 0.7);
    EXPECT_FALSE(kinds.empty());
}

TEST(SensorQuality, NoiseExplosionDegradesStability) {
    sim::Simulator sim;
    SensorQualityConfig cfg;
    cfg.nominal_noise_sigma = 0.1;
    SensorQualityMonitor mon(sim, "lidar", cfg);
    mon.start();
    RandomEngine rng(5);
    sim.schedule_periodic(Duration::ms(50),
                          [&] { mon.sample(rng.normal(50.0, 3.0), true); });
    sim.run_until(Time(Duration::sec(3).count_ns()));
    EXPECT_LT(mon.stability(), 0.2);
    EXPECT_LT(mon.quality(), 0.7);
}

TEST(SensorQuality, InvalidFlagsDegradeValidity) {
    sim::Simulator sim;
    SensorQualityConfig cfg;
    SensorQualityMonitor mon(sim, "radar", cfg);
    mon.start();
    RandomEngine rng(5);
    int i = 0;
    sim.schedule_periodic(Duration::ms(50), [&] {
        mon.sample(rng.normal(50.0, 0.1), (i++ % 2) == 0);
    });
    sim.run_until(Time(Duration::sec(3).count_ns()));
    EXPECT_NEAR(mon.validity(), 0.5, 0.1);
}

TEST(SensorQuality, RecoverySignalled) {
    sim::Simulator sim;
    SensorQualityConfig cfg;
    SensorQualityMonitor mon(sim, "radar", cfg);
    std::vector<std::string> kinds;
    mon.anomaly().subscribe([&](const Anomaly& a) { kinds.push_back(a.kind); });
    mon.start();
    RandomEngine rng(5);
    // Healthy stream, but interrupted in the middle third.
    std::uint64_t healthy = sim.schedule_periodic(
        Duration::ms(50), [&] { mon.sample(rng.normal(50.0, 0.1), true); });
    sim.run_until(Time(Duration::sec(2).count_ns()));
    sim.cancel_periodic(healthy);
    sim.run_until(Time(Duration::sec(4).count_ns()));
    sim.schedule_periodic(Duration::ms(50),
                          [&] { mon.sample(rng.normal(50.0, 0.1), true); });
    sim.run_until(Time(Duration::sec(7).count_ns()));
    EXPECT_GT(mon.quality(), 0.8);
    EXPECT_NE(std::find(kinds.begin(), kinds.end(), "sensor_recovered"), kinds.end());
}

// --- MonitorManager -----------------------------------------------------------------

TEST(Manager, AggregatesAnomalies) {
    sim::Simulator sim;
    MonitorManager mgr(sim);
    auto& range = mgr.add<RangeMonitor>("vitals");
    range.set_bounds("x", 0.0, 1.0);
    std::vector<std::string> kinds;
    mgr.anomalies().subscribe([&](const Anomaly& a) { kinds.push_back(a.kind); });
    range.sample("x", 5.0);
    EXPECT_EQ(kinds, std::vector<std::string>{"range_violation"});
    EXPECT_EQ(mgr.total_anomalies(), 1u);
    EXPECT_EQ(mgr.monitor_count(), 1u);
}

TEST(Manager, InternsMetricNamesOnce) {
    sim::Simulator sim;
    MonitorManager mgr(sim);
    const MetricId util = mgr.metric_id("ecu0.util");
    const MetricId gap = mgr.metric_id("drive.gap");
    EXPECT_NE(util, gap);
    EXPECT_EQ(mgr.metric_id("ecu0.util"), util);
    EXPECT_EQ(mgr.metric_name(util), "ecu0.util");
    EXPECT_EQ(mgr.metric_names(), (std::vector<std::string>{"drive.gap", "ecu0.util"}));
    EXPECT_THROW(mgr.ingest(gap + 1, 1.0, Time::zero()), ContractViolation);
}

TEST(Manager, OverheadTaskInterferesMinimally) {
    sim::Simulator sim;
    rte::Rte rte(sim);
    rte::Ecu& ecu = rte.add_ecu(rte::EcuConfig{"ecu0", {1.0}, {}});
    ecu.scheduler().add_task(fixed_task("app", 5, Duration::ms(10), Duration::ms(2)));

    MonitorManager mgr(sim);
    mgr.attach_overhead_task(ecu, Duration::ms(10), Duration::us(50), 1);
    ecu.scheduler().start();
    sim.run_until(Time(Duration::sec(1).count_ns()));
    // The monitor costs 50us per 10ms = 0.5% utilization.
    EXPECT_NEAR(ecu.scheduler().utilization(sim.now()), 0.205, 0.01);
    EXPECT_EQ(ecu.scheduler().missed_deadlines(), 0u);
}

// --- the metric_ingested() tap -----------------------------------------------------

/// "<subscriber>:<metric name>=<value>@<ns>" for one tap delivery.
std::string delivery(const char* who, const MonitorManager& mgr, MetricId id,
                     double value, Time at) {
    return sa::format("%s:%s=%g@%lld", who, mgr.metric_name(id).c_str(), value,
                      static_cast<long long>(at.ns()));
}

TEST(Manager, MetricTapFiresInSubscriptionOrder) {
    sim::Simulator sim;
    MonitorManager mgr(sim);
    std::vector<std::string> order;
    mgr.metric_ingested().subscribe([&](MetricId id, double value, Time at) {
        order.push_back(delivery("first", mgr, id, value, at));
    });
    mgr.metric_ingested().subscribe([&](MetricId id, double value, Time at) {
        order.push_back(delivery("second", mgr, id, value, at));
    });
    mgr.ingest(mgr.metric_id("x"), 1.0, Time::zero());
    mgr.ingest(mgr.metric_id("y"), 2.0, Time(5));
    EXPECT_EQ(order, (std::vector<std::string>{"first:x=1@0", "second:x=1@0",
                                               "first:y=2@5", "second:y=2@5"}));
}

TEST(Manager, MetricTapDeliversNestedIngestInOrder) {
    // A subscriber that ingests a metric of its own from inside the tap: the
    // nested sample reaches every subscriber, in subscription order, before
    // the outer sample reaches the next subscriber, and the outer sample's
    // id, value and time are intact afterwards.
    sim::Simulator sim;
    MonitorManager mgr(sim);
    const MetricId x = mgr.metric_id("x");
    const MetricId derived = mgr.metric_id("x.derived");
    std::vector<std::string> order;
    mgr.metric_ingested().subscribe([&](MetricId id, double value, Time at) {
        order.push_back(delivery("first", mgr, id, value, at));
        if (id == x) {
            mgr.ingest(derived, value * 10.0, at + Duration::us(1));
        }
    });
    mgr.metric_ingested().subscribe([&](MetricId id, double value, Time at) {
        order.push_back(delivery("second", mgr, id, value, at));
    });
    mgr.ingest(x, 1.5, Time(7));
    mgr.ingest(x, 2.5, Time(9));
    EXPECT_EQ(order, (std::vector<std::string>{
                         "first:x=1.5@7", "first:x.derived=15@1007",
                         "second:x.derived=15@1007", "second:x=1.5@7",
                         "first:x=2.5@9", "first:x.derived=25@1009",
                         "second:x.derived=25@1009", "second:x=2.5@9"}));
}

TEST(Manager, MetricTapUnsubscribeStopsDeliveryToThatObserverOnly) {
    sim::Simulator sim;
    MonitorManager mgr(sim);
    int first = 0;
    int second = 0;
    const auto id = mgr.metric_ingested().subscribe([&](MetricId, double, Time) { ++first; });
    mgr.metric_ingested().subscribe([&](MetricId, double, Time) { ++second; });
    const MetricId x = mgr.metric_id("x");
    mgr.ingest(x, 1.0, Time::zero());
    mgr.metric_ingested().unsubscribe(id);
    mgr.ingest(x, 2.0, Time::zero());
    EXPECT_EQ(first, 1);
    EXPECT_EQ(second, 2);
}

// --- the anomaly-kind catalogue ----------------------------------------------------

TEST(Kinds, CatalogueIsSortedUniqueAndClosed) {
    EXPECT_TRUE(std::is_sorted(std::begin(kinds::kAll), std::end(kinds::kAll)));
    EXPECT_EQ(std::adjacent_find(std::begin(kinds::kAll), std::end(kinds::kAll)),
              std::end(kinds::kAll));
    for (const auto kind : kinds::kAll) {
        EXPECT_TRUE(kinds::is_catalogued(kind)) << kind;
    }
    EXPECT_TRUE(kinds::is_catalogued(kinds::kLearnedAbnormality));
    EXPECT_TRUE(kinds::is_catalogued(kinds::kLearnedRecovered));
    EXPECT_FALSE(kinds::is_catalogued("definitely_not_a_kind"));
    EXPECT_FALSE(kinds::is_catalogued(""));
}

TEST(Kinds, RuntimeAnomaliesUseCataloguedKinds) {
    sim::Simulator sim;
    MonitorManager mgr(sim);
    std::vector<std::string> uncatalogued;
    mgr.anomalies().subscribe([&](const Anomaly& a) {
        if (!kinds::is_catalogued(a.kind)) {
            uncatalogued.push_back(a.kind);
        }
    });

    auto& range = mgr.add<RangeMonitor>("vitals");
    range.set_bounds("x", 0.0, 1.0);
    range.sample("x", 5.0); // range_violation
    range.sample("x", 0.5); // range_recovered

    auto& hb = mgr.add<HeartbeatMonitor>("pulse", Duration::ms(50), Duration::ms(10));
    hb.start();
    sim.run_until(Time(Duration::ms(200).count_ns())); // heartbeat_loss
    hb.beat();                                         // heartbeat_recovered

    EXPECT_GE(mgr.total_anomalies(), 4u);
    EXPECT_TRUE(uncatalogued.empty())
        << "first uncatalogued kind: " << uncatalogued.front();
}

} // namespace
