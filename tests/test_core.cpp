// Tests for the cross-layer self-awareness core: entry-layer routing, the
// coordinator's containment-first selection, escalation up the stack,
// conflict suppression, follow-up propagation, the self-model, and the
// concrete layer implementations on small fixtures.

#include <gtest/gtest.h>

#include "core/ability_layer.hpp"
#include "core/coordinator.hpp"
#include "core/network_layer.hpp"
#include "core/objective_layer.hpp"
#include "core/platform_layer.hpp"
#include "core/safety_layer.hpp"
#include "core/self_model.hpp"
#include "monitor/range_monitor.hpp"
#include "skills/capability_registry.hpp"
#include "util/assert.hpp"

namespace {

using namespace sa;
using namespace sa::core;
using sim::Duration;
using sim::Time;

monitor::Anomaly make_anomaly(monitor::Domain domain, const std::string& kind,
                              const std::string& source,
                              monitor::Severity severity = monitor::Severity::Critical) {
    monitor::Anomaly a;
    a.domain = domain;
    a.kind = kind;
    a.source = source;
    a.severity = severity;
    a.magnitude = 1.0;
    return a;
}

// --- Entry-layer routing -----------------------------------------------------------

TEST(EntryLayer, DomainsMapToLayers) {
    EXPECT_EQ(entry_layer(monitor::Domain::Platform), LayerId::Platform);
    EXPECT_EQ(entry_layer(monitor::Domain::Network), LayerId::Network);
    EXPECT_EQ(entry_layer(monitor::Domain::Security), LayerId::Network);
    EXPECT_EQ(entry_layer(monitor::Domain::Function), LayerId::Safety);
    EXPECT_EQ(entry_layer(monitor::Domain::Sensor), LayerId::Ability);
}

TEST(EntryLayer, EveryDomainHasAnEntryLayer) {
    // The switch names every enumerator and compiles under -Wswitch -Werror:
    // adding a Domain without deciding its entry layer fails this build, and
    // kAllDomains (checked below) keeps the runtime sweep exhaustive.
    auto expected = [](monitor::Domain domain) {
        switch (domain) {
        case monitor::Domain::Platform: return LayerId::Platform;
        case monitor::Domain::Network: return LayerId::Network;
        case monitor::Domain::Security: return LayerId::Network;
        case monitor::Domain::Function: return LayerId::Safety;
        case monitor::Domain::Sensor: return LayerId::Ability;
        }
        return LayerId::Platform;
    };
    std::size_t covered = 0;
    for (const monitor::Domain domain : monitor::kAllDomains) {
        EXPECT_EQ(entry_layer(domain), expected(domain))
            << "domain " << monitor::to_string(domain);
        // Every entry layer must be a valid LayerId (routing never falls off
        // the stack).
        const int layer = static_cast<int>(entry_layer(domain));
        EXPECT_GE(layer, 0);
        EXPECT_LT(layer, kLayerCount);
        ++covered;
    }
    EXPECT_EQ(covered, std::size(monitor::kAllDomains));
}

// --- Scripted layer for coordinator-only tests ---------------------------------------

class ScriptedLayer : public Layer {
public:
    ScriptedLayer(LayerId id, std::vector<Proposal> proposals)
        : Layer(id),
          proposals_(std::move(proposals)) {}

    std::vector<Proposal> propose(const Problem&) override {
        ++asked_;
        return proposals_;
    }
    double health() const override { return 1.0; }

    int asked_ = 0;

private:
    std::vector<Proposal> proposals_;
};

Proposal scripted(LayerId layer, const std::string& action, double scope, double cost,
                  double adequacy, int* counter = nullptr) {
    Proposal p;
    p.layer = layer;
    p.action = action;
    p.target = action + "_target";
    p.scope = scope;
    p.cost = cost;
    p.adequacy = adequacy;
    p.execute = [counter] {
        if (counter != nullptr) {
            ++*counter;
        }
    };
    return p;
}

TEST(Coordinator, PicksMinimalScopeProposal) {
    sim::Simulator sim;
    CrossLayerCoordinator coord(sim);
    int small = 0;
    int big = 0;
    coord.register_layer(std::make_unique<ScriptedLayer>(
        LayerId::Network,
        std::vector<Proposal>{scripted(LayerId::Network, "big", 0.8, 0.1, 0.9, &big),
                              scripted(LayerId::Network, "small", 0.1, 0.5, 0.9, &small)}));
    const auto decision =
        coord.handle(make_anomaly(monitor::Domain::Security, "rate_excess", "x"));
    EXPECT_TRUE(decision.resolved);
    EXPECT_EQ(decision.executed->action, "small");
    EXPECT_EQ(small, 1);
    EXPECT_EQ(big, 0);
    EXPECT_EQ(decision.considered.size(), 2u);
}

TEST(Coordinator, CostBreaksScopeTies) {
    sim::Simulator sim;
    CrossLayerCoordinator coord(sim);
    coord.register_layer(std::make_unique<ScriptedLayer>(
        LayerId::Network,
        std::vector<Proposal>{scripted(LayerId::Network, "pricey", 0.3, 0.9, 0.9),
                              scripted(LayerId::Network, "cheap", 0.3, 0.1, 0.9)}));
    const auto decision =
        coord.handle(make_anomaly(monitor::Domain::Network, "rate_excess", "x"));
    EXPECT_EQ(decision.executed->action, "cheap");
}

TEST(Coordinator, InadequateProposalsEscalate) {
    sim::Simulator sim;
    CrossLayerCoordinator coord(sim);
    auto weak = std::make_unique<ScriptedLayer>(
        LayerId::Network,
        std::vector<Proposal>{scripted(LayerId::Network, "useless", 0.1, 0.1, 0.2)});
    auto strong = std::make_unique<ScriptedLayer>(
        LayerId::Safety,
        std::vector<Proposal>{scripted(LayerId::Safety, "redundancy", 0.2, 0.2, 0.9)});
    auto* weak_ptr = weak.get();
    coord.register_layer(std::move(weak));
    coord.register_layer(std::move(strong));
    const auto decision =
        coord.handle(make_anomaly(monitor::Domain::Network, "rate_excess", "x"));
    EXPECT_TRUE(decision.resolved);
    EXPECT_EQ(decision.executed->layer, LayerId::Safety);
    EXPECT_EQ(decision.escalations, 1);
    EXPECT_EQ(weak_ptr->asked_, 1);
    EXPECT_GE(coord.total_escalations(), 1u);
}

TEST(Coordinator, UnresolvedWhenNothingAdequate) {
    sim::Simulator sim;
    CrossLayerCoordinator coord(sim);
    coord.register_layer(std::make_unique<ScriptedLayer>(
        LayerId::Platform,
        std::vector<Proposal>{scripted(LayerId::Platform, "weak", 0.1, 0.1, 0.1)}));
    const auto decision =
        coord.handle(make_anomaly(monitor::Domain::Platform, "deadline_miss", "t"));
    EXPECT_FALSE(decision.resolved);
    EXPECT_FALSE(decision.rationale.empty());
    EXPECT_EQ(coord.problems_unresolved(), 1u);
}

TEST(Coordinator, SingleLayerAblationNeverEscalates) {
    sim::Simulator sim;
    CoordinatorConfig cfg;
    cfg.cross_layer_enabled = false;
    CrossLayerCoordinator coord(sim, cfg);
    auto upper = std::make_unique<ScriptedLayer>(
        LayerId::Safety,
        std::vector<Proposal>{scripted(LayerId::Safety, "would_work", 0.1, 0.1, 0.9)});
    auto* upper_ptr = upper.get();
    coord.register_layer(std::make_unique<ScriptedLayer>(LayerId::Network,
                                                         std::vector<Proposal>{}));
    coord.register_layer(std::move(upper));
    const auto decision =
        coord.handle(make_anomaly(monitor::Domain::Network, "rate_excess", "x"));
    EXPECT_FALSE(decision.resolved);
    EXPECT_EQ(upper_ptr->asked_, 0); // never consulted
}

TEST(Coordinator, ConflictingTargetSuppressedWithinCooldown) {
    sim::Simulator sim;
    CrossLayerCoordinator coord(sim); // 500 ms conflict cooldown
    int executions = 0;
    // Same target every time.
    Proposal p = scripted(LayerId::Network, "restart_gateway", 0.2, 0.2, 0.9, &executions);
    coord.register_layer(
        std::make_unique<ScriptedLayer>(LayerId::Network, std::vector<Proposal>{p}));
    const auto first =
        coord.handle(make_anomaly(monitor::Domain::Network, "rate_excess", "gw"));
    EXPECT_TRUE(first.resolved);
    const auto second =
        coord.handle(make_anomaly(monitor::Domain::Network, "rate_excess", "gw"));
    EXPECT_FALSE(second.resolved); // conflicting action suppressed
    EXPECT_EQ(executions, 1);
    EXPECT_GE(coord.conflicts_avoided(), 1u);

    // After the cooldown the action is allowed again.
    sim.run_until(Time(Duration::ms(600).count_ns()));
    const auto third =
        coord.handle(make_anomaly(monitor::Domain::Network, "rate_excess", "gw"));
    EXPECT_TRUE(third.resolved);
    EXPECT_EQ(executions, 2);
}

TEST(Coordinator, FollowUpProcessedThroughStack) {
    sim::Simulator sim;
    CrossLayerCoordinator coord(sim);
    int contained = 0;
    int covered = 0;
    Proposal contain = scripted(LayerId::Network, "contain", 0.2, 0.3, 0.9, &contained);
    contain.follow_up = make_anomaly(monitor::Domain::Function, "component_contained",
                                     "victim");
    coord.register_layer(std::make_unique<ScriptedLayer>(
        LayerId::Network, std::vector<Proposal>{contain}));
    coord.register_layer(std::make_unique<ScriptedLayer>(
        LayerId::Safety,
        std::vector<Proposal>{scripted(LayerId::Safety, "cover", 0.1, 0.1, 0.9, &covered)}));

    const auto decision =
        coord.handle(make_anomaly(monitor::Domain::Security, "rate_excess", "victim"));
    EXPECT_TRUE(decision.resolved);
    EXPECT_EQ(contained, 1);
    EXPECT_EQ(covered, 1); // follow-up reached the safety layer
    EXPECT_EQ(coord.problems_handled(), 2u);
    EXPECT_EQ(coord.decisions().size(), 2u);
}

TEST(Coordinator, InfoAnomaliesIgnoredViaConnect) {
    sim::Simulator sim;
    CrossLayerCoordinator coord(sim);
    coord.register_layer(std::make_unique<ScriptedLayer>(
        LayerId::Ability,
        std::vector<Proposal>{scripted(LayerId::Ability, "noop", 0.1, 0.1, 0.9)}));
    monitor::MonitorManager monitors(sim);
    coord.connect(monitors);
    auto& range = monitors.add<monitor::RangeMonitor>("vitals");
    range.set_bounds("x", 0.0, 1.0, monitor::Severity::Warning);
    range.sample("x", 2.0); // violation -> handled
    range.sample("x", 0.5); // recovery (Info) -> ignored
    EXPECT_EQ(coord.problems_handled(), 1u);
}

TEST(Coordinator, DuplicateLayerRejected) {
    sim::Simulator sim;
    CrossLayerCoordinator coord(sim);
    coord.register_layer(
        std::make_unique<ScriptedLayer>(LayerId::Network, std::vector<Proposal>{}));
    EXPECT_THROW(coord.register_layer(std::make_unique<ScriptedLayer>(
                     LayerId::Network, std::vector<Proposal>{})),
                 ContractViolation);
}

TEST(Coordinator, DecisionHistoryIsTrimmedToCapacity) {
    sim::Simulator sim;
    CrossLayerCoordinator coord(sim);
    const std::size_t capacity = CrossLayerCoordinator::kDecisionHistory;
    const std::size_t total = capacity + 76;
    for (std::size_t i = 0; i < total; ++i) {
        (void)coord.handle(make_anomaly(monitor::Domain::Network, "rate_excess",
                                        "n" + std::to_string(i)));
    }
    EXPECT_EQ(coord.problems_handled(), total);
    // The audit deque is bounded: exactly the last `capacity` decisions
    // survive, oldest first.
    ASSERT_EQ(coord.decisions().size(), capacity);
    EXPECT_EQ(coord.decisions().front().problem_id, total - capacity + 1);
    EXPECT_EQ(coord.decisions().back().problem_id, total);
}

// --- Concrete layers on a small system fixture -----------------------------------------

struct SystemFixture {
    sim::Simulator sim{11};
    rte::Rte rte{sim};
    model::Mcc mcc;
    skills::AbilityGraph abilities{*skills::CapabilityRegistry::builtin().spec("acc")};
    skills::DegradationManager tactics;

    SystemFixture() : mcc(make_platform()) {
        rte.add_ecu(rte::EcuConfig{"ecu_a", {1.0, 0.8, 0.6, 0.4}, {}});
        rte.add_ecu(rte::EcuConfig{"ecu_b", {1.0, 0.8, 0.6, 0.4}, {}});

        model::ChangeRequest change;
        change.description = "baseline";
        change.contracts.push_back(contract("brake_ctrl", model::Asil::D, 0.2));
        auto backup = contract("brake_ctrl_b", model::Asil::D, 0.2);
        backup.redundant_with = "brake_ctrl";
        change.contracts.push_back(backup);
        change.contracts.push_back(contract("acc_app", model::Asil::C, 0.1));
        const auto report = mcc.integrate(change);
        SA_ASSERT(report.accepted, "fixture integration must succeed");
        rte.apply(mcc.make_rte_config());
        rte.start();
    }

    static model::PlatformModel make_platform() {
        model::PlatformModel p;
        p.ecus.push_back(model::EcuDescriptor{"ecu_a", 1.0, 0.75, model::Asil::D,
                                              "engine_bay", "main"});
        p.ecus.push_back(model::EcuDescriptor{"ecu_b", 1.0, 0.75, model::Asil::D,
                                              "cabin", "main"});
        return p;
    }

    static model::Contract contract(const std::string& name, model::Asil asil,
                                    double utilization) {
        model::Contract c;
        c.component = name;
        c.asil = asil;
        model::TaskSpec t;
        t.name = "main";
        t.period = Duration::ms(10);
        t.wcet = Duration::from_seconds(0.01 * utilization);
        t.bcet = t.wcet;
        c.tasks.push_back(t);
        return c;
    }
};

TEST(PlatformLayerImpl, DvfsProposalWhenSchedulable) {
    SystemFixture fx;
    PlatformLayer layer(fx.rte, fx.mcc);
    Problem p;
    p.anomaly = make_anomaly(monitor::Domain::Platform, "range_violation", "temp.ecu_a");
    p.entry = LayerId::Platform;
    const auto proposals = layer.propose(p);
    ASSERT_EQ(proposals.size(), 1u);
    EXPECT_EQ(proposals[0].action, "dvfs_down");
    EXPECT_GT(proposals[0].adequacy, 0.8); // 0.8 speed still schedulable
    proposals[0].execute();
    EXPECT_EQ(fx.rte.ecu("ecu_a").dvfs_level(), 1);
    EXPECT_EQ(layer.dvfs_actions(), 1u);
}

TEST(PlatformLayerImpl, ThrottlingThatBreaksDeadlinesHasLowAdequacy) {
    SystemFixture fx;
    // Push ecu_a towards its cap so the 0.4 level becomes unschedulable.
    model::ChangeRequest change;
    auto hog = SystemFixture::contract("hog", model::Asil::B, 0.3);
    hog.pinned_ecu = "ecu_a";
    change.contracts.push_back(hog);
    ASSERT_TRUE(fx.mcc.integrate(change).accepted);

    PlatformLayer layer(fx.rte, fx.mcc);
    // Walk DVFS down to the second-lowest level first.
    fx.rte.ecu("ecu_a").set_dvfs_level(2);
    Problem p;
    p.anomaly = make_anomaly(monitor::Domain::Platform, "range_violation", "temp.ecu_a");
    const auto proposals = layer.propose(p);
    ASSERT_EQ(proposals.size(), 1u);
    // Next level 0.4: utilization on ecu_a >= 0.5/0.4 > 1 -> unschedulable.
    EXPECT_LT(proposals[0].adequacy, 0.5);
    ASSERT_TRUE(proposals[0].follow_up.has_value());
    EXPECT_EQ(proposals[0].follow_up->kind, "platform_performance_reduced");
}

TEST(NetworkLayerImpl, ContainmentProposalsForIds) {
    SystemFixture fx;
    NetworkLayer layer(fx.rte);
    Problem p;
    p.anomaly = make_anomaly(monitor::Domain::Security, "rate_excess", "brake_ctrl");
    const auto proposals = layer.propose(p);
    ASSERT_EQ(proposals.size(), 2u);
    EXPECT_EQ(proposals[0].action, "revoke_access");
    EXPECT_EQ(proposals[1].action, "contain_component");
    EXPECT_LT(proposals[0].scope, proposals[1].scope);
    ASSERT_TRUE(proposals[1].follow_up.has_value());
    EXPECT_EQ(proposals[1].follow_up->kind, "component_contained");

    proposals[1].execute();
    EXPECT_EQ(fx.rte.component("brake_ctrl").state(), rte::ComponentState::Contained);
    EXPECT_EQ(layer.containments(), 1u);
    EXPECT_LT(layer.health(), 1.0);
}

TEST(NetworkLayerImpl, IgnoresUnrelatedAnomalies) {
    SystemFixture fx;
    NetworkLayer layer(fx.rte);
    Problem p;
    p.anomaly = make_anomaly(monitor::Domain::Platform, "deadline_miss", "brake_ctrl");
    EXPECT_TRUE(layer.propose(p).empty());
}

TEST(SafetyLayerImpl, RedundancyPreferredOverRestartForContainment) {
    SystemFixture fx;
    SafetyLayer layer(fx.rte, fx.mcc);
    Problem p;
    p.anomaly =
        make_anomaly(monitor::Domain::Function, "component_contained", "brake_ctrl");
    const auto proposals = layer.propose(p);
    ASSERT_EQ(proposals.size(), 2u);
    const Proposal* redundancy = nullptr;
    const Proposal* restart = nullptr;
    for (const auto& prop : proposals) {
        if (prop.action == "activate_redundancy") redundancy = &prop;
        if (prop.action == "recover_restart") restart = &prop;
    }
    ASSERT_NE(redundancy, nullptr);
    ASSERT_NE(restart, nullptr);
    EXPECT_GT(redundancy->adequacy, 0.9);
    // Restarting a contained (compromised) component must be inadequate.
    EXPECT_LT(restart->adequacy, 0.5);
}

TEST(SafetyLayerImpl, NoRedundancyForUnpairedComponent) {
    SystemFixture fx;
    SafetyLayer layer(fx.rte, fx.mcc);
    Problem p;
    p.anomaly = make_anomaly(monitor::Domain::Function, "heartbeat_loss", "acc_app");
    const auto proposals = layer.propose(p);
    for (const auto& prop : proposals) {
        EXPECT_NE(prop.action, "activate_redundancy");
    }
    // But restart is offered and adequate for a plain failure.
    ASSERT_EQ(proposals.size(), 1u);
    EXPECT_EQ(proposals[0].action, "recover_restart");
    EXPECT_GT(proposals[0].adequacy, 0.5);
}

TEST(SafetyLayerImpl, HealthDropsWithLostCriticalComponents) {
    SystemFixture fx;
    SafetyLayer layer(fx.rte, fx.mcc);
    EXPECT_DOUBLE_EQ(layer.health(), 1.0);
    fx.rte.component("brake_ctrl").fail();
    EXPECT_LT(layer.health(), 1.0);
}

TEST(AbilityLayerImpl, TacticsBecomeProposals) {
    SystemFixture fx;
    int reduced = 0;
    fx.tactics.register_tactic(skills::Tactic{
        "reduce_max_speed", skills::acc::kDecelerate, 0.2, 0.85, 2,
        [&] { ++reduced; }, nullptr});
    AbilityLayer layer(fx.abilities, fx.tactics, skills::acc::kAccDriving);
    layer.set_update_hook([&](const Problem&) {
        fx.abilities.set_source_level(skills::acc::kBrakeSystem, 0.65);
        return true;
    });
    Problem p;
    p.anomaly =
        make_anomaly(monitor::Domain::Function, "component_contained", "brake_ctrl");
    const auto proposals = layer.propose(p);
    ASSERT_EQ(proposals.size(), 1u);
    EXPECT_EQ(proposals[0].action, "tactic:reduce_max_speed");
    proposals[0].execute();
    EXPECT_EQ(reduced, 1);
    EXPECT_EQ(layer.tactics_applied(), 1u);
    EXPECT_LT(layer.health(), 1.0);
}

TEST(AbilityLayerImpl, NoProposalsWhenNominal) {
    SystemFixture fx;
    fx.tactics.register_tactic(skills::Tactic{
        "t", skills::acc::kAccDriving, 0.0, 0.85, 1, [] {}, nullptr});
    AbilityLayer layer(fx.abilities, fx.tactics, skills::acc::kAccDriving);
    Problem p;
    p.anomaly = make_anomaly(monitor::Domain::Sensor, "sensor_degraded", "radar");
    EXPECT_TRUE(layer.propose(p).empty());
    EXPECT_DOUBLE_EQ(layer.health(), 1.0);
}

TEST(ObjectiveLayerImpl, SafeStopAlwaysOffered) {
    ObjectiveLayer layer;
    Problem p;
    p.anomaly = make_anomaly(monitor::Domain::Function, "anything", "x");
    const auto proposals = layer.propose(p);
    ASSERT_EQ(proposals.size(), 1u);
    EXPECT_EQ(proposals[0].action, "safe_stop");
    EXPECT_DOUBLE_EQ(proposals[0].adequacy, 1.0);
    bool stopped = false;
    layer.set_safe_stop_action([&] { stopped = true; });
    const auto again = layer.propose(p);
    again[0].execute();
    EXPECT_TRUE(stopped);
    EXPECT_EQ(layer.objective(), DrivingObjective::SafeStop);
    EXPECT_LT(layer.health(), 0.5);
}

TEST(ObjectiveLayerImpl, AlternativesPreferredBeforeSafeStop) {
    ObjectiveLayer layer;
    bool platooned = false;
    layer.add_alternative(ObjectiveLayer::Alternative{
        "join_platoon", 0.4,
        [](const Problem& prob) { return prob.anomaly.kind == "sensor_degraded"; },
        [&] { platooned = true; }});
    Problem p;
    p.anomaly = make_anomaly(monitor::Domain::Sensor, "sensor_degraded", "camera");
    const auto proposals = layer.propose(p);
    ASSERT_EQ(proposals.size(), 2u);
    EXPECT_EQ(proposals[0].action, "join_platoon");
    EXPECT_LT(proposals[0].cost, proposals[1].cost);
    proposals[0].execute();
    EXPECT_TRUE(platooned);
    EXPECT_EQ(layer.objective(), DrivingObjective::DegradedDrive);
}

// --- Self model ---------------------------------------------------------------------------

TEST(SelfModel, SnapshotsAggregateLayerHealth) {
    sim::Simulator sim;
    CrossLayerCoordinator coord(sim);
    coord.register_layer(
        std::make_unique<ScriptedLayer>(LayerId::Platform, std::vector<Proposal>{}));
    coord.register_layer(
        std::make_unique<ScriptedLayer>(LayerId::Objective, std::vector<Proposal>{}));
    SelfModel self(sim, coord);
    EXPECT_FALSE(self.has_snapshot());
    EXPECT_THROW((void)self.latest(), ContractViolation);
    const auto& snap = self.capture();
    EXPECT_TRUE(self.has_snapshot());
    EXPECT_EQ(&snap, &self.latest());
    EXPECT_EQ(snap.version, 1u);
    EXPECT_DOUBLE_EQ(snap.overall, 1.0);
    EXPECT_EQ(snap.layer_health.size(), 2u);
}

TEST(SelfModel, PeriodicCaptureAndSignal) {
    sim::Simulator sim;
    CrossLayerCoordinator coord(sim);
    coord.register_layer(
        std::make_unique<ScriptedLayer>(LayerId::Platform, std::vector<Proposal>{}));
    SelfModel self(sim, coord);
    std::vector<std::uint64_t> versions;
    self.snapshot_taken().subscribe(
        [&](const SelfSnapshot& s) { versions.push_back(s.version); });
    self.start(Duration::ms(100));
    sim.run_until(Time(Duration::sec(1).count_ns()));
    ASSERT_GE(versions.size(), 9u);
    // One version per capture, counting up from 1; latest() is the last
    // snapshot published.
    for (std::size_t i = 0; i < versions.size(); ++i) {
        EXPECT_EQ(versions[i], i + 1);
    }
    EXPECT_EQ(self.latest().version, versions.back());
}

class UnhealthyLayer : public Layer {
public:
    UnhealthyLayer() : Layer(LayerId::Ability) {}
    std::vector<Proposal> propose(const Problem&) override { return {}; }
    double health() const override { return 0.3; }
};

TEST(SelfModel, OverallIsMinimumOverLayers) {
    sim::Simulator sim;
    CrossLayerCoordinator coord(sim);
    coord.register_layer(
        std::make_unique<ScriptedLayer>(LayerId::Platform, std::vector<Proposal>{}));
    coord.register_layer(std::make_unique<UnhealthyLayer>());
    SelfModel self(sim, coord);
    const auto snap = self.capture();
    EXPECT_DOUBLE_EQ(snap.overall, 0.3);
    EXPECT_DOUBLE_EQ(snap.health(LayerId::Ability), 0.3);
    EXPECT_DOUBLE_EQ(snap.health(LayerId::Platform), 1.0);
}

} // namespace
