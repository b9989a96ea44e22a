// Tests for skill graphs, ability graphs, aggregation, degradation tactics,
// the ACC example of §IV, and the declarative capability layer (specs,
// registry, degradation policy).

#include <gtest/gtest.h>

#include "skills/ability_graph.hpp"
#include "skills/acc_graph_factory.hpp"
#include "skills/capability_registry.hpp"
#include "skills/degradation.hpp"
#include "skills/degradation_policy.hpp"
#include "skills/skill_graph_spec.hpp"
#include "util/assert.hpp"

namespace {

using namespace sa;
using namespace sa::skills;

SkillGraph tiny_graph() {
    SkillGraph g;
    g.add_skill("drive");
    g.add_skill("perceive");
    g.add_skill("brake");
    g.add_source("radar");
    g.add_sink("brake_hw");
    g.add_dependency("drive", "perceive");
    g.add_dependency("drive", "brake");
    g.add_dependency("perceive", "radar");
    g.add_dependency("brake", "brake_hw");
    return g;
}

// --- SkillGraph --------------------------------------------------------------------

TEST(SkillGraph, BuildAndQuery) {
    const auto g = tiny_graph();
    EXPECT_EQ(g.node_count(), 5u);
    EXPECT_EQ(g.edge_count(), 4u);
    EXPECT_EQ(g.children("drive"), (std::vector<std::string>{"perceive", "brake"}));
    EXPECT_EQ(g.parents("radar"), (std::vector<std::string>{"perceive"}));
    EXPECT_EQ(g.roots(), (std::vector<std::string>{"drive"}));
    EXPECT_NO_THROW(g.validate());
}

TEST(SkillGraph, SourcesCannotHaveDependencies) {
    SkillGraph g;
    g.add_source("radar");
    g.add_skill("s");
    g.add_sink("out");
    g.add_dependency("s", "out");
    EXPECT_THROW(g.add_dependency("radar", "s"), ContractViolation);
}

TEST(SkillGraph, DanglingSkillFailsValidation) {
    SkillGraph g;
    g.add_skill("lonely");
    EXPECT_THROW(g.validate(), SkillGraphError);
}

TEST(SkillGraph, CycleDetected) {
    SkillGraph g;
    g.add_skill("a");
    g.add_skill("b");
    g.add_dependency("a", "b");
    g.add_dependency("b", "a");
    EXPECT_THROW(g.validate(), SkillGraphError);
    EXPECT_THROW((void)g.topological_order(), SkillGraphError);
}

TEST(SkillGraph, DuplicatesRejected) {
    SkillGraph g;
    g.add_skill("a");
    EXPECT_THROW(g.add_skill("a"), ContractViolation);
    g.add_skill("b");
    g.add_dependency("a", "b");
    EXPECT_THROW(g.add_dependency("a", "b"), ContractViolation);
}

TEST(SkillGraph, TopologicalOrderChildrenFirst) {
    const auto g = tiny_graph();
    const auto order = g.topological_order();
    auto pos = [&](const std::string& n) {
        return std::find(order.begin(), order.end(), n) - order.begin();
    };
    EXPECT_LT(pos("radar"), pos("perceive"));
    EXPECT_LT(pos("perceive"), pos("drive"));
    EXPECT_LT(pos("brake_hw"), pos("brake"));
    EXPECT_LT(pos("brake"), pos("drive"));
}

// --- Aggregation -----------------------------------------------------------------------

TEST(Aggregation, MinIsWeakestLink) {
    EXPECT_DOUBLE_EQ(aggregate(Aggregation::Min, {{0.9, 1}, {0.4, 1}, {1.0, 1}}), 0.4);
}

TEST(Aggregation, ProductCompounds) {
    EXPECT_DOUBLE_EQ(aggregate(Aggregation::Product, {{0.5, 1}, {0.5, 1}}), 0.25);
}

TEST(Aggregation, WeightedMeanRespectsWeights) {
    EXPECT_DOUBLE_EQ(
        aggregate(Aggregation::WeightedMean, {{1.0, 3.0}, {0.0, 1.0}}), 0.75);
}

TEST(Aggregation, EmptyAggregatesToOne) {
    EXPECT_DOUBLE_EQ(aggregate(Aggregation::Min, {}), 1.0);
}

TEST(Aggregation, OrderingBetweenAggregators) {
    // For any inputs: product <= min <= weighted mean (equal weights).
    const std::vector<WeightedLevel> inputs{{0.9, 1}, {0.6, 1}, {0.8, 1}};
    const double p = aggregate(Aggregation::Product, inputs);
    const double m = aggregate(Aggregation::Min, inputs);
    const double w = aggregate(Aggregation::WeightedMean, inputs);
    EXPECT_LE(p, m);
    EXPECT_LE(m, w);
}

// --- classify ---------------------------------------------------------------------------

TEST(Classify, ThresholdBands) {
    EXPECT_EQ(classify(1.0), AbilityLevel::Nominal);
    EXPECT_EQ(classify(0.85), AbilityLevel::Nominal);
    EXPECT_EQ(classify(0.84), AbilityLevel::Reduced);
    EXPECT_EQ(classify(0.5), AbilityLevel::Reduced);
    EXPECT_EQ(classify(0.49), AbilityLevel::Marginal);
    EXPECT_EQ(classify(0.15), AbilityLevel::Marginal);
    EXPECT_EQ(classify(0.14), AbilityLevel::Unavailable);
}

// --- AbilityGraph -----------------------------------------------------------------------

TEST(AbilityGraph, AllNominalInitially) {
    AbilityGraph ag(tiny_graph());
    ag.propagate();
    for (const auto& [name, level] : ag.snapshot()) {
        EXPECT_DOUBLE_EQ(level, 1.0) << name;
    }
    EXPECT_EQ(ag.ability("drive"), AbilityLevel::Nominal);
}

TEST(AbilityGraph, SourceDegradationPropagatesToRoot) {
    AbilityGraph ag(tiny_graph());
    ag.set_source_level("radar", 0.3);
    ag.propagate();
    EXPECT_DOUBLE_EQ(ag.level("perceive"), 0.3);
    EXPECT_DOUBLE_EQ(ag.level("drive"), 0.3); // min aggregation
    EXPECT_EQ(ag.ability("drive"), AbilityLevel::Marginal);
    EXPECT_DOUBLE_EQ(ag.level("brake"), 1.0); // untouched branch
}

TEST(AbilityGraph, IntrinsicLevelCapsSkill) {
    AbilityGraph ag(tiny_graph());
    ag.set_intrinsic_level("perceive", 0.6); // e.g. poor tracker performance
    ag.propagate();
    EXPECT_DOUBLE_EQ(ag.level("perceive"), 0.6);
    EXPECT_DOUBLE_EQ(ag.level("drive"), 0.6);
}

TEST(AbilityGraph, PropagationIsIdempotent) {
    AbilityGraph ag(tiny_graph());
    ag.set_source_level("radar", 0.5);
    ag.propagate();
    const auto snap1 = ag.snapshot();
    const auto changes = ag.propagate();
    EXPECT_EQ(changes, 0u);
    EXPECT_EQ(ag.snapshot(), snap1);
}

TEST(AbilityGraph, LevelChangedSignalFiresOnQualitativeChange) {
    AbilityGraph ag(tiny_graph());
    std::vector<std::string> changed;
    ag.level_changed().subscribe(
        [&](const std::string& node, AbilityLevel, AbilityLevel) {
            changed.push_back(node);
        });
    ag.set_source_level("radar", 0.95); // still nominal everywhere
    EXPECT_EQ(ag.propagate(), 0u);
    EXPECT_TRUE(changed.empty());
    ag.set_source_level("radar", 0.3);
    EXPECT_GT(ag.propagate(), 0u);
    EXPECT_FALSE(changed.empty());
}

TEST(AbilityGraph, WeightedAggregationSoftensImpact) {
    auto g = tiny_graph();
    AbilityGraph ag(std::move(g));
    ag.set_aggregation("drive", Aggregation::WeightedMean);
    ag.set_dependency_weight("drive", "perceive", 1.0);
    ag.set_dependency_weight("drive", "brake", 3.0);
    ag.set_source_level("radar", 0.0);
    ag.propagate();
    EXPECT_DOUBLE_EQ(ag.level("drive"), 0.75); // (0*1 + 1*3) / 4
}

TEST(AbilityGraph, RecoveryRestoresNominal) {
    AbilityGraph ag(tiny_graph());
    ag.set_source_level("radar", 0.2);
    ag.propagate();
    EXPECT_NE(ag.ability("drive"), AbilityLevel::Nominal);
    ag.set_source_level("radar", 1.0);
    ag.propagate();
    EXPECT_EQ(ag.ability("drive"), AbilityLevel::Nominal);
}

TEST(AbilityGraph, MonotonicityProperty) {
    // Lowering any single source can never raise any skill level.
    for (double level : {0.9, 0.7, 0.5, 0.3, 0.1}) {
        AbilityGraph base(tiny_graph());
        base.propagate();
        AbilityGraph degraded(tiny_graph());
        degraded.set_source_level("radar", level);
        degraded.propagate();
        for (const auto& [name, value] : degraded.snapshot()) {
            EXPECT_LE(value, base.level(name)) << name << " at " << level;
        }
    }
}

TEST(AbilityGraph, RejectsInvalidInputs) {
    AbilityGraph ag(tiny_graph());
    EXPECT_THROW(ag.set_source_level("ghost", 0.5), ContractViolation);
    EXPECT_THROW(ag.set_source_level("drive", 0.5), ContractViolation);
    EXPECT_THROW(ag.set_intrinsic_level("radar", 0.5), ContractViolation);
    EXPECT_THROW(ag.set_source_level("radar", 1.5), ContractViolation);
}

// --- DegradationManager ------------------------------------------------------------------

TEST(Degradation, PlansCheapestApplicableTactic) {
    AbilityGraph ag(tiny_graph());
    DegradationManager mgr;
    int applied_cheap = 0;
    int applied_costly = 0;
    mgr.register_tactic(Tactic{"reduce_speed", "drive", 0.2, 0.85, 2,
                               [&] { ++applied_cheap; }, nullptr});
    mgr.register_tactic(Tactic{"safe_stop_now", "drive", 0.0, 0.85, 9,
                               [&] { ++applied_costly; }, nullptr});
    ag.set_source_level("radar", 0.5);
    ag.propagate();
    const auto plan = mgr.plan(ag);
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan[0]->name, "reduce_speed");
    const auto applied = mgr.execute(ag);
    ASSERT_EQ(applied.size(), 1u);
    EXPECT_EQ(applied_cheap, 1);
    EXPECT_EQ(applied_costly, 0);
    EXPECT_EQ(mgr.history().size(), 1u);
}

TEST(Degradation, NothingPlannedWhenNominal) {
    AbilityGraph ag(tiny_graph());
    DegradationManager mgr;
    mgr.register_tactic(Tactic{"t", "drive", 0.0, 0.85, 1, [] {}, nullptr});
    ag.propagate();
    EXPECT_TRUE(mgr.plan(ag).empty());
}

TEST(Degradation, FiredTacticNotReplanned) {
    AbilityGraph ag(tiny_graph());
    DegradationManager mgr;
    mgr.register_tactic(Tactic{"t", "drive", 0.0, 0.85, 1, [] {}, nullptr});
    ag.set_source_level("radar", 0.4);
    ag.propagate();
    EXPECT_EQ(mgr.execute(ag).size(), 1u);
    EXPECT_TRUE(mgr.plan(ag).empty()); // fired
    mgr.rearm("t");
    EXPECT_EQ(mgr.plan(ag).size(), 1u);
}

TEST(Degradation, ExtraConditionGuards) {
    AbilityGraph ag(tiny_graph());
    DegradationManager mgr;
    bool allowed = false;
    mgr.register_tactic(
        Tactic{"guarded", "drive", 0.0, 0.85, 1, [] {}, [&] { return allowed; }});
    ag.set_source_level("radar", 0.4);
    ag.propagate();
    EXPECT_TRUE(mgr.plan(ag).empty());
    allowed = true;
    EXPECT_EQ(mgr.plan(ag).size(), 1u);
}

TEST(Degradation, ApplicabilityBandRespected) {
    AbilityGraph ag(tiny_graph());
    DegradationManager mgr;
    // Only applicable when drive is *severely* degraded.
    mgr.register_tactic(Tactic{"last_resort", "drive", 0.0, 0.2, 1, [] {}, nullptr});
    ag.set_source_level("radar", 0.5);
    ag.propagate();
    EXPECT_TRUE(mgr.plan(ag).empty()); // 0.5 outside [0, 0.2)
    ag.set_source_level("radar", 0.1);
    ag.propagate();
    EXPECT_EQ(mgr.plan(ag).size(), 1u);
}

// --- ACC example (§IV) --------------------------------------------------------------------

TEST(AccGraph, StructureMatchesPaper) {
    const auto g = make_acc_skill_graph();
    EXPECT_NO_THROW(g.validate());
    EXPECT_EQ(g.roots(), (std::vector<std::string>{acc::kAccDriving}));

    // Main skill refinement per the paper's narration.
    const auto main_deps = g.children(acc::kAccDriving);
    EXPECT_EQ(main_deps, (std::vector<std::string>{acc::kControlDistance,
                                                   acc::kControlSpeed,
                                                   acc::kKeepControllable}));
    // "To keep the vehicle controllable ... estimate the driver's intent and
    // to be able to decelerate".
    EXPECT_EQ(g.children(acc::kKeepControllable),
              (std::vector<std::string>{acc::kEstimateDriverIntent, acc::kDecelerate}));
    // "For the selection of a target object ... perceive and track dynamic
    // objects which itself depends on environment sensors as data sources".
    EXPECT_EQ(g.children(acc::kSelectTarget),
              (std::vector<std::string>{acc::kPerceiveTrack}));
    // "To estimate the driver's intent, a form of HMI is required".
    EXPECT_EQ(g.children(acc::kEstimateDriverIntent),
              (std::vector<std::string>{acc::kHmi}));
    // "Acceleration and deceleration both require the powertrain ... while
    // deceleration also requires the braking system".
    EXPECT_EQ(g.children(acc::kAccelerate), (std::vector<std::string>{acc::kPowertrain}));
    EXPECT_EQ(g.children(acc::kDecelerate),
              (std::vector<std::string>{acc::kPowertrain, acc::kBrakeSystem}));
}

TEST(AccGraph, AggregateSensorVariant) {
    AccGraphOptions opt;
    opt.split_environment_sensors = false;
    const auto g = make_acc_skill_graph(opt);
    EXPECT_TRUE(g.has_node("environment_sensors"));
    EXPECT_FALSE(g.has_node(acc::kRadar));
    EXPECT_NO_THROW(g.validate());
}

TEST(AccGraph, FogScenarioDegradesPerception) {
    AbilityGraph ag(make_acc_skill_graph());
    // Dense fog: camera nearly blind, lidar poor, radar fine.
    ag.set_source_level(acc::kCamera, 0.1);
    ag.set_source_level(acc::kLidar, 0.35);
    ag.set_source_level(acc::kRadar, 0.9);
    ag.propagate();
    EXPECT_EQ(ag.ability(acc::kPerceiveTrack), AbilityLevel::Unavailable);
    EXPECT_EQ(ag.ability(acc::kAccDriving), AbilityLevel::Unavailable);

    // A fusion-aware perception stack (weighted mean) keeps partial ability.
    AbilityGraph fused(make_acc_skill_graph());
    fused.set_aggregation(acc::kPerceiveTrack, Aggregation::WeightedMean);
    fused.set_dependency_weight(acc::kPerceiveTrack, acc::kRadar, 3.0);
    fused.set_dependency_weight(acc::kPerceiveTrack, acc::kCamera, 1.0);
    fused.set_dependency_weight(acc::kPerceiveTrack, acc::kLidar, 1.0);
    fused.set_source_level(acc::kCamera, 0.1);
    fused.set_source_level(acc::kLidar, 0.35);
    fused.set_source_level(acc::kRadar, 0.9);
    fused.propagate();
    EXPECT_GT(fused.level(acc::kPerceiveTrack), 0.5);
}

// --- SkillGraphSpec ----------------------------------------------------------------

constexpr const char* kTinySpecText = R"(
    // the tiny_graph() fixture, as a spec
    graph tiny {
      root drive;
      skill drive "main";
      skill perceive;
      skill brake;
      source radar "range sensor";
      sink brake_hw;
      drive -> perceive brake;
      perceive -> radar;
      brake -> brake_hw;
      aggregate drive weighted_mean;
      weight drive perceive 3.0;
      weight drive brake 1.0;
    }
)";

TEST(SkillGraphSpec, ParsesAndInstantiates) {
    const auto spec = SkillGraphSpec::parse(kTinySpecText);
    EXPECT_EQ(spec.name(), "tiny");
    EXPECT_EQ(spec.root_skill(), "drive");
    EXPECT_EQ(spec.node_count(), 5u);
    EXPECT_EQ(spec.edge_count(), 4u);
    const auto g = spec.instantiate();
    EXPECT_NO_THROW(g.validate());
    EXPECT_EQ(g.children("drive"), (std::vector<std::string>{"perceive", "brake"}));
    EXPECT_EQ(g.node("radar").kind, SkillNodeKind::DataSource);
    EXPECT_EQ(g.node("radar").description, "range sensor");
    EXPECT_EQ(g.node("brake_hw").kind, SkillNodeKind::DataSink);
}

TEST(SkillGraphSpec, InstantiateAbilitiesAppliesAggregationAndWeights) {
    const auto spec = SkillGraphSpec::parse(kTinySpecText);
    auto abilities = spec.instantiate_abilities();
    abilities.set_source_level("radar", 0.0);
    abilities.propagate();
    // weighted mean at drive: (perceive 0 * 3 + brake 1 * 1) / 4 = 0.25.
    EXPECT_DOUBLE_EQ(abilities.level("drive"), 0.25);
}

TEST(SkillGraphSpec, StrRoundTrips) {
    const auto spec = SkillGraphSpec::parse(kTinySpecText);
    const auto reparsed = SkillGraphSpec::parse(spec.str());
    EXPECT_EQ(reparsed.str(), spec.str());
    EXPECT_EQ(reparsed.node_names(), spec.node_names());
    EXPECT_EQ(reparsed.root_skill(), spec.root_skill());
    // Same propagate behaviour after the round trip.
    auto a = spec.instantiate_abilities();
    auto b = reparsed.instantiate_abilities();
    a.set_source_level("radar", 0.4);
    b.set_source_level("radar", 0.4);
    a.propagate();
    b.propagate();
    EXPECT_EQ(a.snapshot(), b.snapshot());
}

TEST(SkillGraphSpec, BuilderFormEqualsParsedForm) {
    SkillGraphSpec built("tiny");
    built.root("drive")
        .skill("drive", "main")
        .skill("perceive")
        .skill("brake")
        .source("radar", "range sensor")
        .sink("brake_hw")
        .depends("drive", {"perceive", "brake"})
        .depends("perceive", {"radar"})
        .depends("brake", {"brake_hw"})
        .aggregate("drive", Aggregation::WeightedMean)
        .weight("drive", "perceive", 3.0)
        .weight("drive", "brake", 1.0);
    EXPECT_EQ(built.str(), SkillGraphSpec::parse(kTinySpecText).str());
}

TEST(SkillGraphSpec, ParseErrorsCarryLineNumbers) {
    EXPECT_THROW((void)SkillGraphSpec::parse("graph g { bogus x; }"), util::ParseError);
    EXPECT_THROW((void)SkillGraphSpec::parse("graph g { skill s "), util::ParseError);
    EXPECT_THROW((void)SkillGraphSpec::parse(
                     "graph g { skill s; aggregate s median; s -> s; }"),
                 util::ParseError);
    EXPECT_THROW((void)SkillGraphSpec::parse("graph g { skill s \"unterminated; }"),
                 util::ParseError);
    // Malformed weight numbers surface as util::ParseError, not raw std::stod
    // exceptions; partially-consumed tokens ("1.2.3") and non-positive
    // weights are rejected the same way.
    const char* const kWeightPrefix =
        "graph g { skill a; sink b; a -> b; weight a b ";
    for (const char* value : {".;", "1.2.3;", "0;", "5.;"}) {
        EXPECT_THROW((void)SkillGraphSpec::parse(std::string(kWeightPrefix) + value +
                                                 " }"),
                     util::ParseError)
            << value;
    }
    // Unknown statements and duplicate nodes both report the line.
    for (const char* third : {"bogus x;", "skill a;", "source a;"}) {
        try {
            (void)SkillGraphSpec::parse(std::string("graph g {\n  skill a;\n  ") + third +
                                        "\n}");
            ADD_FAILURE() << "accepted: " << third;
        } catch (const util::ParseError& err) {
            EXPECT_EQ(err.line(), 3) << third;
        }
    }
}

TEST(SkillGraphSpec, DuplicateNodesAndBadRootRejected) {
    SkillGraphSpec spec("dup");
    spec.skill("a");
    EXPECT_THROW(spec.skill("a"), ContractViolation);
    // Descriptions that cannot survive the quote-delimited text form are
    // rejected at declaration (the round-trip promise stays honest).
    EXPECT_THROW(spec.skill("q", "inner \" quote"), ContractViolation);
    EXPECT_THROW(spec.source("n", "line\nbreak"), ContractViolation);
    // Declared root that is not a root of the instantiated graph.
    SkillGraphSpec bad("bad");
    bad.root("child")
        .skill("top")
        .skill("child")
        .sink("out")
        .depends("top", {"child"})
        .depends("child", {"out"});
    EXPECT_THROW((void)bad.instantiate(), ContractViolation);
}

// --- ACC-as-spec parity -------------------------------------------------------------

/// The retired hand-wired factory, reproduced verbatim: the spec-instantiated
/// graph must match it node for node, edge for edge, and propagate for
/// propagate.
SkillGraph hand_wired_acc() {
    using namespace acc;
    SkillGraph g;
    g.add_skill(kAccDriving);
    g.add_skill(kControlDistance);
    g.add_skill(kControlSpeed);
    g.add_skill(kKeepControllable);
    g.add_skill(kEstimateDriverIntent);
    g.add_skill(kSelectTarget);
    g.add_skill(kPerceiveTrack);
    g.add_skill(kAccelerate);
    g.add_skill(kDecelerate);
    g.add_sink(kPowertrain);
    g.add_sink(kBrakeSystem);
    g.add_source(kHmi);
    g.add_source(kRadar);
    g.add_source(kCamera);
    g.add_source(kLidar);
    g.add_dependency(kAccDriving, kControlDistance);
    g.add_dependency(kAccDriving, kControlSpeed);
    g.add_dependency(kAccDriving, kKeepControllable);
    g.add_dependency(kKeepControllable, kEstimateDriverIntent);
    g.add_dependency(kKeepControllable, kDecelerate);
    g.add_dependency(kControlDistance, kSelectTarget);
    g.add_dependency(kControlDistance, kEstimateDriverIntent);
    g.add_dependency(kControlDistance, kAccelerate);
    g.add_dependency(kControlDistance, kDecelerate);
    g.add_dependency(kControlSpeed, kSelectTarget);
    g.add_dependency(kControlSpeed, kEstimateDriverIntent);
    g.add_dependency(kControlSpeed, kAccelerate);
    g.add_dependency(kControlSpeed, kDecelerate);
    g.add_dependency(kSelectTarget, kPerceiveTrack);
    g.add_dependency(kPerceiveTrack, kRadar);
    g.add_dependency(kPerceiveTrack, kCamera);
    g.add_dependency(kPerceiveTrack, kLidar);
    g.add_dependency(kEstimateDriverIntent, kHmi);
    g.add_dependency(kAccelerate, kPowertrain);
    g.add_dependency(kDecelerate, kPowertrain);
    g.add_dependency(kDecelerate, kBrakeSystem);
    g.validate();
    return g;
}

TEST(AccAsSpec, StructureIdenticalToHandWiredFactory) {
    const SkillGraph reference = hand_wired_acc();
    const SkillGraph from_spec = make_acc_skill_graph();
    EXPECT_EQ(from_spec.node_names(), reference.node_names());
    EXPECT_EQ(from_spec.edge_count(), reference.edge_count());
    for (const auto& name : reference.node_names()) {
        EXPECT_EQ(from_spec.node(name).kind, reference.node(name).kind) << name;
        EXPECT_EQ(from_spec.children(name), reference.children(name)) << name;
        EXPECT_EQ(from_spec.parents(name), reference.parents(name)) << name;
    }
    EXPECT_EQ(from_spec.topological_order(), reference.topological_order());
}

TEST(AccAsSpec, PropagateResultsIdenticalToHandWiredFactory) {
    // Sweep a grid of source degradations (with the fog-style weighted
    // perception fusion) through both graphs: every node level must match
    // exactly, not approximately.
    for (double camera : {1.0, 0.6, 0.1, 0.0}) {
        for (double brake : {1.0, 0.35, 0.0}) {
            AbilityGraph reference(hand_wired_acc());
            AbilityGraph from_spec(make_acc_skill_graph());
            for (AbilityGraph* ag : {&reference, &from_spec}) {
                ag->set_aggregation(acc::kPerceiveTrack, Aggregation::WeightedMean);
                ag->set_dependency_weight(acc::kPerceiveTrack, acc::kRadar, 3.0);
                ag->set_dependency_weight(acc::kPerceiveTrack, acc::kCamera, 1.0);
                ag->set_dependency_weight(acc::kPerceiveTrack, acc::kLidar, 1.0);
                ag->set_source_level(acc::kCamera, camera);
                ag->set_source_level(acc::kBrakeSystem, brake);
            }
            EXPECT_EQ(reference.propagate(), from_spec.propagate());
            EXPECT_EQ(reference.snapshot(), from_spec.snapshot())
                << "camera=" << camera << " brake=" << brake;
        }
    }
}

// --- CapabilityRegistry -------------------------------------------------------------

TEST(CapabilityRegistry, BuiltinCatalogueIsComplete) {
    const auto& registry = CapabilityRegistry::builtin();
    EXPECT_EQ(registry.spec_names(),
              (std::vector<std::string>{"acc", "acc_aggregate_sensors",
                                        "emergency_stop", "lane_keep",
                                        "platoon_follow"}));
    for (const auto& name : registry.spec_names()) {
        const auto g = registry.instantiate(name);
        EXPECT_NO_THROW(g.validate()) << name;
        const auto& spec = registry.spec(name);
        EXPECT_FALSE(spec.root_skill().empty()) << name;
        // Every spec node is a registered capability of the declared kind.
        for (const auto& node : spec.node_names()) {
            ASSERT_TRUE(registry.has_capability(node)) << name << "/" << node;
            EXPECT_EQ(registry.capability(node).node_kind, g.node(node).kind)
                << name << "/" << node;
        }
    }
    EXPECT_GE(registry.capability_count(), 30u);
}

TEST(CapabilityRegistry, NewManeuverGraphsHaveExpectedRoots) {
    const auto& registry = CapabilityRegistry::builtin();
    EXPECT_EQ(registry.instantiate("lane_keep").roots(),
              (std::vector<std::string>{caps::kLaneKeeping}));
    EXPECT_EQ(registry.instantiate("emergency_stop").roots(),
              (std::vector<std::string>{caps::kEmergencyStop}));
    EXPECT_EQ(registry.instantiate("platoon_follow").roots(),
              (std::vector<std::string>{caps::kPlatoonFollow}));

    // platoon_follow: losing V2V degrades command reception hard but the
    // radar-dominant tracking fusion keeps partial follow ability.
    auto abilities = registry.instantiate_abilities("platoon_follow");
    abilities.set_source_level(caps::kV2vLink, 0.0);
    abilities.propagate();
    EXPECT_DOUBLE_EQ(abilities.level(caps::kReceivePlatoonCommands), 0.0);
    EXPECT_NEAR(abilities.level(caps::kTrackLeadVehicle), 2.0 / 3.0, 1e-12);
    EXPECT_EQ(abilities.ability(caps::kPlatoonFollow), AbilityLevel::Unavailable);
}

TEST(CapabilityRegistry, RejectsSpecsReferencingUnknownCapabilities) {
    CapabilityRegistry registry;
    registry.register_capability(
        Capability{"known", SkillNodeKind::Skill, "", {{QualityKind::Accuracy, 1.0}}});
    SkillGraphSpec spec("bad");
    spec.root("known").skill("known").source("ghost").depends("known", {"ghost"});
    EXPECT_THROW(registry.register_spec(spec), ContractViolation);
    // Kind mismatch is also a catalogue bug.
    CapabilityRegistry mismatched;
    mismatched.register_capability(Capability{
        "node", SkillNodeKind::DataSink, "", {{QualityKind::Availability, 1.0}}});
    SkillGraphSpec wrong_kind("bad2");
    wrong_kind.skill("node");
    EXPECT_THROW(mismatched.register_spec(wrong_kind), ContractViolation);
}

TEST(CapabilityRegistry, AlarmBindingsMatchAnomalies) {
    const auto& registry = CapabilityRegistry::builtin();
    monitor::Anomaly anomaly;
    anomaly.domain = monitor::Domain::Sensor;
    anomaly.kind = "sensor_failed";
    anomaly.source = acc::kRadar;
    const auto matched = registry.match(anomaly);
    ASSERT_EQ(matched.size(), 1u);
    EXPECT_EQ(matched[0]->capability_for(anomaly), acc::kRadar);
    EXPECT_EQ(matched[0]->quality, QualityKind::Availability);
    EXPECT_DOUBLE_EQ(matched[0]->degraded_value, 0.0);

    anomaly.kind = "no_such_kind";
    EXPECT_TRUE(registry.match(anomaly).empty());
    anomaly.kind = "sensor_failed";
    anomaly.domain = monitor::Domain::Network; // wrong domain
    EXPECT_TRUE(registry.match(anomaly).empty());
}

// --- DegradationPolicy --------------------------------------------------------------

monitor::Anomaly sensor_anomaly(const char* kind, const char* source) {
    monitor::Anomaly anomaly;
    anomaly.domain = monitor::Domain::Sensor;
    anomaly.kind = kind;
    anomaly.source = source;
    return anomaly;
}

TEST(DegradationPolicy, MapsAlarmsOntoCapabilityDowngrades) {
    auto abilities = CapabilityRegistry::builtin().instantiate_abilities("acc");
    DegradationPolicy policy;
    EXPECT_TRUE(policy.apply(sensor_anomaly("sensor_failed", acc::kCamera), abilities));
    abilities.propagate();
    EXPECT_DOUBLE_EQ(abilities.level(acc::kCamera), 0.0);
    EXPECT_EQ(abilities.ability(acc::kPerceiveTrack), AbilityLevel::Unavailable);
    ASSERT_EQ(policy.history().size(), 1u);
    EXPECT_EQ(policy.history()[0].capability, acc::kCamera);
    EXPECT_EQ(policy.history()[0].quality, QualityKind::Availability);
    // Unmatched anomalies change nothing.
    EXPECT_FALSE(policy.apply(sensor_anomaly("bogus", acc::kCamera), abilities));
    // Re-applying the same downgrade is idempotent.
    EXPECT_FALSE(policy.apply(sensor_anomaly("sensor_failed", acc::kCamera), abilities));
    // ... but a re-asserted alarm wins over a direct graph write made since
    // (e.g. a tactic refreshing a level from actuator state).
    abilities.set_source_level(acc::kCamera, 0.8);
    EXPECT_TRUE(policy.apply(sensor_anomaly("sensor_failed", acc::kCamera), abilities));
    EXPECT_DOUBLE_EQ(abilities.level(acc::kCamera), 0.0);
}

TEST(DegradationPolicy, EffectiveLevelIsMinOverQualities) {
    auto abilities = CapabilityRegistry::builtin().instantiate_abilities("acc");
    DegradationPolicy policy;
    // Degrade accuracy first, then availability harder.
    EXPECT_TRUE(policy.apply(sensor_anomaly("sensor_degraded", acc::kRadar), abilities));
    EXPECT_DOUBLE_EQ(abilities.level(acc::kRadar), 0.35);
    EXPECT_TRUE(policy.apply(sensor_anomaly("sensor_failed", acc::kRadar), abilities));
    EXPECT_DOUBLE_EQ(abilities.level(acc::kRadar), 0.0);
    // Availability comes back (a relink rule), but the degraded accuracy
    // still caps the effective level: min over tracked qualities.
    AlarmBinding relink;
    relink.anomaly_kind = "radar_relinked";
    relink.capability = acc::kRadar;
    relink.quality = QualityKind::Availability;
    relink.degraded_value = 1.0;
    policy.on_anomaly(relink);
    monitor::Anomaly relinked;
    relinked.kind = "radar_relinked";
    EXPECT_TRUE(policy.apply(relinked, abilities));
    EXPECT_DOUBLE_EQ(abilities.level(acc::kRadar), 0.35);
    EXPECT_DOUBLE_EQ(policy.effective_level(acc::kRadar), 0.35);
    // The builtin sensor_recovered binding restores the remaining quality.
    EXPECT_TRUE(
        policy.apply(sensor_anomaly("sensor_recovered", acc::kRadar), abilities));
    EXPECT_DOUBLE_EQ(abilities.level(acc::kRadar), 1.0);
    // restore() clears the tracked state entirely.
    policy.restore(acc::kRadar, abilities);
    EXPECT_DOUBLE_EQ(policy.effective_level(acc::kRadar), 1.0);
}

TEST(DegradationPolicy, ScenarioRulesExtendTheRegistry) {
    auto abilities = CapabilityRegistry::builtin().instantiate_abilities("acc");
    DegradationPolicy policy;
    AlarmBinding rule;
    rule.anomaly_kind = "component_contained";
    rule.source = "brake_ctrl";
    rule.capability = acc::kBrakeSystem;
    rule.quality = QualityKind::Availability;
    rule.degraded_value = 0.35;
    policy.on_anomaly(rule);

    monitor::Anomaly contained;
    contained.domain = monitor::Domain::Security;
    contained.kind = "component_contained";
    contained.source = "brake_ctrl";
    EXPECT_TRUE(policy.apply(contained, abilities));
    abilities.propagate();
    EXPECT_DOUBLE_EQ(abilities.level(acc::kBrakeSystem), 0.35);
    EXPECT_EQ(abilities.ability(acc::kDecelerate), AbilityLevel::Marginal);
    // A different source does not match the rule.
    contained.source = "perception";
    EXPECT_FALSE(policy.apply(contained, abilities));
}

TEST(DegradationPolicy, SkillDowngradesStayIdempotentWithDegradedChildren) {
    // Idempotence must compare against what the policy wrote (the skill's
    // intrinsic cap), not the propagated level, which also reflects the
    // degraded children and never matches the imposed value.
    auto abilities = CapabilityRegistry::builtin().instantiate_abilities("acc");
    abilities.set_source_level(acc::kRadar, 0.0);
    abilities.set_source_level(acc::kCamera, 0.0);
    abilities.set_source_level(acc::kLidar, 0.0);
    abilities.propagate();
    DegradationPolicy policy;
    AlarmBinding rule;
    rule.anomaly_kind = "tracker_diverged";
    rule.capability = acc::kPerceiveTrack;
    rule.quality = QualityKind::Accuracy;
    rule.degraded_value = 0.35;
    policy.on_anomaly(rule);
    monitor::Anomaly anomaly;
    anomaly.kind = "tracker_diverged";
    EXPECT_TRUE(policy.apply(anomaly, abilities));
    ASSERT_EQ(policy.history().size(), 1u);
    // Re-asserting the identical alarm (e.g. monitor stream + the ability
    // layer hook both seeing it) is a recorded-once no-op.
    EXPECT_FALSE(policy.apply(anomaly, abilities));
    EXPECT_FALSE(policy.apply(anomaly, abilities));
    EXPECT_EQ(policy.history().size(), 1u);
    EXPECT_DOUBLE_EQ(abilities.intrinsic_level(acc::kPerceiveTrack), 0.35);
}

TEST(SkillGraphSpec, NonIdentifierNamesRejected) {
    // Names that cannot lex as one identifier would break parse(str()).
    EXPECT_THROW(SkillGraphSpec("bad name"), ContractViolation);
    EXPECT_THROW(SkillGraphSpec("1st"), ContractViolation);
    SkillGraphSpec spec("ok");
    EXPECT_THROW(spec.skill("front radar"), ContractViolation);
    EXPECT_THROW(spec.source("a-b"), ContractViolation);
    EXPECT_NO_THROW(spec.skill("front_radar_2"));
}

TEST(DegradationPolicy, SkillCapabilitiesDowngradeIntrinsically) {
    auto abilities = CapabilityRegistry::builtin().instantiate_abilities("acc");
    DegradationPolicy policy;
    AlarmBinding rule;
    rule.anomaly_kind = "tracker_diverged";
    rule.capability = acc::kPerceiveTrack;
    rule.quality = QualityKind::Accuracy;
    rule.degraded_value = 0.4;
    policy.on_anomaly(rule);
    monitor::Anomaly anomaly;
    anomaly.kind = "tracker_diverged";
    anomaly.source = "tracker";
    EXPECT_TRUE(policy.apply(anomaly, abilities));
    abilities.propagate();
    // Intrinsic cap: sources are all nominal, the skill itself is degraded.
    EXPECT_DOUBLE_EQ(abilities.level(acc::kPerceiveTrack), 0.4);
    EXPECT_DOUBLE_EQ(abilities.level(acc::kRadar), 1.0);
}

TEST(DegradationPolicy, SkipsCapabilitiesOutsideTheGraph) {
    // lane_keep has no radar: a radar alarm must be a no-op, not an error.
    auto abilities = CapabilityRegistry::builtin().instantiate_abilities("lane_keep");
    DegradationPolicy policy;
    EXPECT_FALSE(policy.apply(sensor_anomaly("sensor_failed", acc::kRadar), abilities));
    EXPECT_TRUE(policy.apply(sensor_anomaly("sensor_failed", acc::kCamera), abilities));
    abilities.propagate();
    EXPECT_EQ(abilities.ability(caps::kDetectLaneMarkings), AbilityLevel::Unavailable);
}

TEST(AccGraph, RearBrakeLossScenario) {
    // §V: rear braking compromised -> brake_system sink degraded -> decelerate
    // and everything above it degrade, but accelerate stays nominal.
    AbilityGraph ag(make_acc_skill_graph());
    ag.set_source_level(acc::kBrakeSystem, 0.35);
    ag.propagate();
    EXPECT_EQ(ag.ability(acc::kDecelerate), AbilityLevel::Marginal);
    EXPECT_EQ(ag.ability(acc::kAccelerate), AbilityLevel::Nominal);
    EXPECT_EQ(ag.ability(acc::kKeepControllable), AbilityLevel::Marginal);
    EXPECT_EQ(ag.ability(acc::kAccDriving), AbilityLevel::Marginal);
}

} // namespace
