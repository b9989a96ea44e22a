// Tests for the execution domain: preemptive scheduler (including its
// agreement with the analytical WCRT), DVFS, services + access control,
// component lifecycle, thermal model and fault injection.

#include <gtest/gtest.h>

#include "analysis/cpu_wcrt.hpp"
#include "rte/fault_injection.hpp"
#include "rte/rte.hpp"
#include "util/assert.hpp"

namespace {

using namespace sa;
using namespace sa::rte;
using sim::Duration;
using sim::Time;

// --- Scheduler ----------------------------------------------------------------

struct SchedRig {
    sim::Simulator sim;
    FixedPriorityScheduler sched{sim, "ecu0"};
};

RtTaskConfig periodic_task(const std::string& name, int priority, Duration period,
                           Duration wcet) {
    RtTaskConfig t;
    t.name = name;
    t.priority = priority;
    t.period = period;
    t.wcet = wcet;
    t.bcet = wcet;
    t.randomize_exec = false;
    return t;
}

TEST(Scheduler, SingleTaskRunsToCompletion) {
    SchedRig rig;
    rig.sched.add_task(periodic_task("t", 1, Duration::ms(10), Duration::ms(2)));
    rig.sched.start();
    rig.sim.run_until(Time(Duration::ms(100).count_ns()));
    EXPECT_EQ(rig.sched.completed_jobs(), 10u);
    EXPECT_EQ(rig.sched.missed_deadlines(), 0u);
}

TEST(Scheduler, ResponseTimesMatchUninterferedExecution) {
    SchedRig rig;
    std::vector<Duration> responses;
    rig.sched.add_task(periodic_task("t", 1, Duration::ms(10), Duration::ms(3)));
    rig.sched.job_completed().subscribe(
        [&](const JobRecord& j) { responses.push_back(j.response); });
    rig.sched.start();
    rig.sim.run_until(Time(Duration::ms(50).count_ns()));
    ASSERT_FALSE(responses.empty());
    for (const auto& r : responses) {
        EXPECT_EQ(r, Duration::ms(3));
    }
}

TEST(Scheduler, PreemptionByHigherPriority) {
    SchedRig rig;
    // Low-priority long task released at t=0; high-priority short task at 5ms
    // phase preempts it.
    auto lp = periodic_task("lp", 10, Duration::ms(100), Duration::ms(10));
    auto hp = periodic_task("hp", 1, Duration::ms(100), Duration::ms(2));
    hp.phase = Duration::ms(5);
    std::map<std::string, Duration> response;
    rig.sched.add_task(lp);
    rig.sched.add_task(hp);
    rig.sched.job_completed().subscribe(
        [&](const JobRecord& j) { response[j.task_name] = j.response; });
    rig.sched.start();
    rig.sim.run_until(Time(Duration::ms(50).count_ns()));
    // hp runs immediately on release: response 2ms.
    EXPECT_EQ(response["hp"], Duration::ms(2));
    // lp: 10ms of work + 2ms preemption = 12ms.
    EXPECT_EQ(response["lp"], Duration::ms(12));
}

TEST(Scheduler, DeadlineMissDetected) {
    SchedRig rig;
    auto t = periodic_task("t", 1, Duration::ms(10), Duration::ms(4));
    t.deadline = Duration::ms(3);
    rig.sched.add_task(t);
    int misses = 0;
    rig.sched.job_completed().subscribe([&](const JobRecord& job) {
        misses += job.deadline_missed ? 1 : 0;
    });
    rig.sched.start();
    rig.sim.run_until(Time(Duration::ms(50).count_ns()));
    EXPECT_GT(misses, 0);
    EXPECT_EQ(rig.sched.missed_deadlines(), static_cast<std::uint64_t>(misses));
}

TEST(Scheduler, SporadicReleaseRuns) {
    SchedRig rig;
    auto t = periodic_task("sporadic", 1, Duration::zero(), Duration::ms(1));
    const TaskId id = rig.sched.add_task(t);
    rig.sched.start();
    int completions = 0;
    rig.sched.job_completed().subscribe([&](const JobRecord&) { ++completions; });
    rig.sim.run_until(Time(Duration::ms(5).count_ns()));
    EXPECT_EQ(completions, 0);
    rig.sched.release(id);
    rig.sim.run_until(Time(Duration::ms(10).count_ns()));
    EXPECT_EQ(completions, 1);
}

TEST(Scheduler, RemoveTaskDiscardsJobs) {
    SchedRig rig;
    const TaskId id =
        rig.sched.add_task(periodic_task("t", 1, Duration::ms(10), Duration::ms(2)));
    rig.sched.start();
    rig.sim.run_until(Time(Duration::ms(25).count_ns()));
    const auto before = rig.sched.completed_jobs();
    rig.sched.remove_task(id);
    rig.sim.run_until(Time(Duration::ms(100).count_ns()));
    EXPECT_EQ(rig.sched.completed_jobs(), before);
    EXPECT_FALSE(rig.sched.has_task(id));
}

TEST(Scheduler, DvfsSlowsExecution) {
    SchedRig rig;
    rig.sched.add_task(periodic_task("t", 1, Duration::ms(20), Duration::ms(4)));
    std::vector<Duration> responses;
    rig.sched.job_completed().subscribe(
        [&](const JobRecord& j) { responses.push_back(j.response); });
    rig.sched.set_speed_factor(0.5);
    rig.sched.start();
    rig.sim.run_until(Time(Duration::ms(40).count_ns()));
    ASSERT_FALSE(responses.empty());
    EXPECT_EQ(responses.front(), Duration::ms(8)); // 4ms work at half speed
}

TEST(Scheduler, DvfsChangeMidJobRetimes) {
    SchedRig rig;
    rig.sched.add_task(periodic_task("t", 1, Duration::ms(100), Duration::ms(10)));
    std::vector<Duration> responses;
    rig.sched.job_completed().subscribe(
        [&](const JobRecord& j) { responses.push_back(j.response); });
    rig.sched.start();
    // Slow down after 5ms of the 10ms job: remaining 5ms at half speed = 10ms.
    rig.sim.schedule(Duration::ms(5), [&] { rig.sched.set_speed_factor(0.5); });
    rig.sim.run_until(Time(Duration::ms(60).count_ns()));
    ASSERT_FALSE(responses.empty());
    EXPECT_EQ(responses.front(), Duration::ms(15));
}

TEST(Scheduler, InjectedExecTimeOverridesOnce) {
    SchedRig rig;
    const TaskId id =
        rig.sched.add_task(periodic_task("t", 1, Duration::ms(10), Duration::ms(1)));
    std::vector<Duration> executed;
    rig.sched.job_completed().subscribe(
        [&](const JobRecord& j) { executed.push_back(j.executed); });
    rig.sched.inject_exec_time(id, Duration::ms(5));
    rig.sched.start();
    rig.sim.run_until(Time(Duration::ms(35).count_ns()));
    ASSERT_GE(executed.size(), 3u);
    EXPECT_EQ(executed[0], Duration::ms(5)); // injected
    EXPECT_EQ(executed[1], Duration::ms(1)); // back to nominal
}

TEST(Scheduler, OverloadShedsJobs) {
    // Released every 1 ms, 5 ms of work each: the backlog passes the
    // scheduler's per-task queue limit within the first 20 ms.
    SchedRig rig;
    rig.sched.add_task(periodic_task("hog", 1, Duration::ms(1), Duration::ms(5)));
    rig.sched.start();
    rig.sim.run_until(Time(Duration::ms(100).count_ns()));
    EXPECT_GT(rig.sched.dropped_jobs(), 0u);
}

TEST(Scheduler, UtilizationTracked) {
    SchedRig rig;
    rig.sched.add_task(periodic_task("t", 1, Duration::ms(10), Duration::ms(5)));
    rig.sched.start();
    rig.sim.run_until(Time(Duration::ms(200).count_ns()));
    EXPECT_NEAR(rig.sched.utilization(rig.sim.now()), 0.5, 0.05);
}

TEST(Scheduler, DuplicatePriorityRejected) {
    SchedRig rig;
    rig.sched.add_task(periodic_task("a", 1, Duration::ms(10), Duration::ms(1)));
    EXPECT_THROW(
        rig.sched.add_task(periodic_task("b", 1, Duration::ms(10), Duration::ms(1))),
        ContractViolation);
}

/// Property: observed worst response times never exceed the analytical WCRT
/// (the simulation must be conservative w.r.t. the acceptance test).
class SchedulerVsAnalysis : public ::testing::TestWithParam<int> {};

TEST_P(SchedulerVsAnalysis, ObservedResponseWithinAnalyticBound) {
    const int seed = GetParam();
    sim::Simulator sim(static_cast<std::uint64_t>(seed));
    FixedPriorityScheduler sched(sim, "ecu");

    analysis::CpuResourceModel model;
    model.name = "ecu";
    struct Spec {
        const char* name;
        int prio;
        int period_ms;
        int wcet_us;
    };
    const Spec specs[] = {{"a", 1, 5, 800}, {"b", 2, 10, 2'000}, {"c", 3, 20, 4'000}};
    std::map<std::string, Duration> worst_observed;
    for (const auto& s : specs) {
        auto cfg = periodic_task(s.name, s.prio, Duration::ms(s.period_ms),
                                 Duration::us(s.wcet_us));
        cfg.randomize_exec = true;
        cfg.bcet = Duration::us(s.wcet_us / 2);
        sched.add_task(cfg);
        analysis::TaskModel t;
        t.name = s.name;
        t.wcet = Duration::us(s.wcet_us);
        t.bcet = Duration::us(s.wcet_us / 2);
        t.priority = s.prio;
        t.activation = analysis::EventModel::periodic(Duration::ms(s.period_ms));
        model.tasks.push_back(t);
    }
    sched.job_completed().subscribe([&](const JobRecord& j) {
        auto& w = worst_observed[j.task_name];
        w = std::max(w, j.response);
    });
    sched.start();
    sim.run_until(Time(Duration::sec(2).count_ns()));

    analysis::CpuWcrtAnalysis analysis;
    const auto result = analysis.analyze(model);
    ASSERT_TRUE(result.all_schedulable);
    for (const auto& e : result.entities) {
        ASSERT_TRUE(worst_observed.count(e.name) > 0);
        EXPECT_LE(worst_observed[e.name], e.wcrt) << e.name;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerVsAnalysis, ::testing::Values(1, 2, 3, 7, 42));

// --- Services & access control --------------------------------------------------

struct ServiceRig {
    sim::Simulator sim;
    AccessControl access;
    ServiceRegistry services{sim, access};
};

TEST(Services, OpenRequiresGrantAndProvider) {
    ServiceRig rig;
    rig.services.provide("srv_comp", "steering", [](const Message&) {});
    EXPECT_FALSE(rig.services.open("client", "steering").has_value()); // no grant
    rig.access.grant("client", "steering");
    EXPECT_TRUE(rig.services.open("client", "steering").has_value());
    EXPECT_FALSE(rig.services.open("client", "ghost_service").has_value());
    EXPECT_EQ(rig.services.denied_opens(), 1u);
}

TEST(Services, CallDeliversAsynchronously) {
    ServiceRig rig;
    std::vector<double> received;
    Time delivered_at;
    rig.services.provide("srv", "echo", [&](const Message& m) {
        received = m.values;
        delivered_at = rig.sim.now();
    });
    rig.access.grant("cli", "echo");
    const auto session = rig.services.open("cli", "echo");
    ASSERT_TRUE(session.has_value());
    EXPECT_TRUE(rig.services.call(*session, {1.0, 2.0}, "hi"));
    EXPECT_TRUE(received.empty()); // not yet delivered
    rig.sim.run_until(Time(Duration::ms(1).count_ns()));
    EXPECT_EQ(received, (std::vector<double>{1.0, 2.0}));
    EXPECT_EQ(delivered_at.ns(), Duration::us(5).count_ns());
}

TEST(Services, WithdrawnServiceDropsInFlightCalls) {
    ServiceRig rig;
    int delivered = 0;
    rig.services.provide("srv", "s", [&](const Message&) { ++delivered; });
    rig.access.grant("cli", "s");
    const auto session = rig.services.open("cli", "s");
    rig.services.call(*session, {});
    rig.services.withdraw_all("srv"); // containment happens before delivery
    rig.sim.run_until(Time(Duration::ms(1).count_ns()));
    EXPECT_EQ(delivered, 0);
    EXPECT_FALSE(rig.services.has_service("s"));
}

TEST(Services, MessageSentSignalObservesTraffic) {
    ServiceRig rig;
    rig.services.provide("srv", "s", [](const Message&) {});
    rig.access.grant("cli", "s");
    int observed = 0;
    rig.services.message_sent().subscribe([&](const Message& m) {
        EXPECT_EQ(m.sender, "cli");
        ++observed;
    });
    const auto session = rig.services.open("cli", "s");
    rig.services.call(*session, {});
    rig.services.call(*session, {});
    EXPECT_EQ(observed, 2);
    EXPECT_EQ(rig.services.calls(), 2u);
}

TEST(AccessControl, RevokeAllRemovesClient) {
    AccessControl access;
    access.grant("c", "s1");
    access.grant("c", "s2");
    access.grant("d", "s1");
    access.revoke_all("c");
    EXPECT_FALSE(access.allowed("c", "s1"));
    EXPECT_FALSE(access.allowed("c", "s2"));
    EXPECT_TRUE(access.allowed("d", "s1"));
}

TEST(AccessControl, DeniedSignalFires) {
    AccessControl access;
    int denials = 0;
    access.denied().subscribe(
        [&](const std::string&, const std::string&) { ++denials; });
    (void)access.allowed("x", "y");
    EXPECT_EQ(denials, 1);
}

// --- Component lifecycle ----------------------------------------------------------

struct RteRig {
    sim::Simulator sim;
    Rte rte{sim};
    RteRig() {
        rte.add_ecu(EcuConfig{"ecu0", {1.0, 0.8, 0.6, 0.4}, {}});
    }
    ComponentSpec spec(const std::string& name) {
        ComponentSpec s;
        s.name = name;
        s.ecu = "ecu0";
        s.tasks.push_back(RtTaskConfig{name + ".main", next_prio_++, Duration::ms(10),
                                       Duration::us(500), Duration::us(500),
                                       Duration::zero(), Duration::zero(), nullptr,
                                       false});
        s.provides.push_back(name + "_svc");
        return s;
    }
    int next_prio_ = 1;
};

TEST(Component, StartStopLifecycle) {
    RteRig rig;
    RteConfig cfg;
    cfg.components.push_back(rig.spec("comp_a"));
    rig.rte.apply(cfg);
    rig.rte.start();

    Component& comp = rig.rte.component("comp_a");
    EXPECT_EQ(comp.state(), ComponentState::Running);
    EXPECT_TRUE(rig.rte.services().has_service("comp_a_svc"));

    rig.sim.run_until(Time(Duration::ms(50).count_ns()));
    EXPECT_GT(rig.rte.total_completed_jobs(), 0u);

    comp.stop();
    EXPECT_EQ(comp.state(), ComponentState::Stopped);
    EXPECT_FALSE(rig.rte.services().has_service("comp_a_svc"));
    const auto jobs = rig.rte.total_completed_jobs();
    rig.sim.run_until(Time(Duration::ms(100).count_ns()));
    EXPECT_EQ(rig.rte.total_completed_jobs(), jobs);
}

TEST(Component, RestartCountsAndResumes) {
    RteRig rig;
    RteConfig cfg;
    cfg.components.push_back(rig.spec("comp_a"));
    rig.rte.apply(cfg);
    rig.rte.start();
    Component& comp = rig.rte.component("comp_a");
    comp.restart();
    EXPECT_EQ(comp.state(), ComponentState::Running);
    EXPECT_EQ(comp.restarts(), 1u);
}

TEST(Component, ContainWithdrawsEverything) {
    RteRig rig;
    RteConfig cfg;
    cfg.components.push_back(rig.spec("victim"));
    rig.rte.apply(cfg);
    rig.rte.start();
    Component& comp = rig.rte.component("victim");
    comp.contain();
    EXPECT_EQ(comp.state(), ComponentState::Contained);
    EXPECT_FALSE(rig.rte.services().has_service("victim_svc"));
    EXPECT_TRUE(comp.task_ids().empty());
}

TEST(Component, StateChangeSignal) {
    RteRig rig;
    RteConfig cfg;
    cfg.components.push_back(rig.spec("comp_a"));
    rig.rte.apply(cfg);
    Component& comp = rig.rte.component("comp_a");
    std::vector<ComponentState> transitions;
    comp.state_changed().subscribe(
        [&](ComponentState, ComponentState next) { transitions.push_back(next); });
    comp.compromise();
    comp.contain();
    ASSERT_EQ(transitions.size(), 2u);
    EXPECT_EQ(transitions[0], ComponentState::Compromised);
    EXPECT_EQ(transitions[1], ComponentState::Contained);
}

TEST(Rte, ApplyUpdatesExistingComponent) {
    RteRig rig;
    RteConfig cfg;
    cfg.components.push_back(rig.spec("comp_a"));
    rig.rte.apply(cfg);
    // Re-apply with a different task period (an update).
    RteConfig update;
    auto spec = rig.spec("comp_a");
    spec.tasks[0].period = Duration::ms(5);
    spec.tasks[0].priority = 99; // fresh priority to avoid clash
    update.components.push_back(spec);
    rig.rte.apply(update);
    EXPECT_EQ(rig.rte.component("comp_a").state(), ComponentState::Running);
}

TEST(Rte, UnknownLookupsThrow) {
    RteRig rig;
    EXPECT_THROW((void)rig.rte.ecu("ghost"), ContractViolation);
    EXPECT_THROW((void)rig.rte.component("ghost"), ContractViolation);
    EXPECT_THROW((void)rig.rte.can_bus("ghost"), ContractViolation);
}

// --- Thermal model -----------------------------------------------------------------

TEST(Thermal, HeatsUpUnderLoadAndCoolsDown) {
    sim::Simulator sim;
    FixedPriorityScheduler sched(sim, "ecu");
    ThermalConfig tc;
    tc.ambient_c = 25.0;
    tc.tau_s = 5.0;
    ThermalModel thermal(sim, sched, tc);

    auto hog = periodic_task("hog", 1, Duration::ms(10), Duration::ms(8));
    sched.add_task(hog);
    sched.start();
    thermal.start();
    sim.run_until(Time(Duration::sec(30).count_ns()));
    const double hot = thermal.temperature_c();
    EXPECT_GT(hot, 40.0); // 80% load heats well above ambient

    sched.stop();
    sim.run_until(Time(Duration::sec(60).count_ns()));
    EXPECT_LT(thermal.temperature_c(), hot - 5.0); // cooling towards idle steady state
}

TEST(Thermal, AmbientStepShiftsSteadyState) {
    sim::Simulator sim;
    FixedPriorityScheduler sched(sim, "ecu");
    ThermalConfig tc;
    tc.tau_s = 2.0;
    ThermalModel thermal(sim, sched, tc);
    thermal.start();
    sim.run_until(Time(Duration::sec(20).count_ns()));
    const double base = thermal.temperature_c();
    thermal.set_ambient_c(60.0);
    sim.run_until(Time(Duration::sec(60).count_ns()));
    EXPECT_GT(thermal.temperature_c(), base + 30.0);
}

TEST(Thermal, DvfsReducesPower) {
    sim::Simulator sim;
    // Two identical rigs, one throttled.
    FixedPriorityScheduler fast(sim, "fast");
    FixedPriorityScheduler slow(sim, "slow");
    ThermalConfig tc;
    tc.tau_s = 3.0;
    ThermalModel thermal_fast(sim, fast, tc);
    ThermalModel thermal_slow(sim, slow, tc);
    fast.add_task(periodic_task("a", 1, Duration::ms(10), Duration::ms(5)));
    slow.add_task(periodic_task("b", 1, Duration::ms(10), Duration::ms(5)));
    slow.set_speed_factor(0.5);
    fast.start();
    slow.start();
    thermal_fast.start();
    thermal_slow.start();
    sim.run_until(Time(Duration::sec(30).count_ns()));
    // Slow ECU: double the busy time but quarter the dynamic power per busy
    // second (speed^2) -> lower temperature overall.
    EXPECT_LT(thermal_slow.temperature_c(), thermal_fast.temperature_c());
}

// --- Fault injection ----------------------------------------------------------------

TEST(FaultInjection, CrashStopsComponent) {
    RteRig rig;
    RteConfig cfg;
    cfg.components.push_back(rig.spec("victim"));
    rig.rte.apply(cfg);
    rig.rte.start();
    FaultInjector chaos(rig.rte);
    chaos.crash_component("victim");
    EXPECT_EQ(rig.rte.component("victim").state(), ComponentState::Failed);
    EXPECT_EQ(chaos.injected_faults(), 1u);
}

TEST(FaultInjection, MessageStormFloodsService) {
    RteRig rig;
    RteConfig cfg;
    cfg.components.push_back(rig.spec("victim"));
    cfg.components.push_back(rig.spec("attacker"));
    cfg.grants.push_back({"attacker", "victim_svc"});
    rig.rte.apply(cfg);
    rig.rte.start();

    FaultInjector chaos(rig.rte);
    chaos.compromise_with_message_storm("attacker", "victim_svc", Duration::ms(1));
    rig.sim.run_until(Time(Duration::ms(200).count_ns()));
    EXPECT_EQ(rig.rte.component("attacker").state(), ComponentState::Compromised);
    EXPECT_GT(rig.rte.services().calls(), 100u); // ~1 kHz storm for 200ms
}

TEST(FaultInjection, AmbientTemperature) {
    RteRig rig;
    FaultInjector chaos(rig.rte);
    chaos.set_ambient_temperature("ecu0", 55.0);
    EXPECT_DOUBLE_EQ(rig.rte.ecu("ecu0").thermal().ambient_c(), 55.0);
}

TEST(Ecu, DvfsLevelsClampAndScale) {
    RteRig rig;
    Ecu& ecu = rig.rte.ecu("ecu0");
    ecu.set_dvfs_level(2);
    EXPECT_EQ(ecu.dvfs_level(), 2);
    EXPECT_DOUBLE_EQ(ecu.speed_factor(), 0.6);
    ecu.set_dvfs_level(99);
    EXPECT_EQ(ecu.dvfs_level(), 3);
    EXPECT_DOUBLE_EQ(ecu.speed_factor(), 0.4);
    EXPECT_DOUBLE_EQ(ecu.dvfs_speed(1), 0.8);
}

} // namespace
