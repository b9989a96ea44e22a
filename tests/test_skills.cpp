// Tests for skill graphs, ability graphs, aggregation, degradation tactics,
// the ACC example of §IV, and the declarative capability layer (specs,
// registry, degradation policy).

#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "skills/ability_graph.hpp"
#include "skills/capability_registry.hpp"
#include "skills/degradation.hpp"
#include "skills/degradation_policy.hpp"
#include "skills/skill_graph_spec.hpp"
#include "util/assert.hpp"
#include "util/random.hpp"

namespace {

using namespace sa;
using namespace sa::skills;

SkillGraphSpec tiny_spec() {
    SkillGraphSpec g("tiny");
    g.skill("drive")
        .skill("perceive")
        .skill("brake")
        .source("radar")
        .sink("brake_hw")
        .depends("drive", {"perceive", "brake"})
        .depends("perceive", {"radar"})
        .depends("brake", {"brake_hw"});
    return g;
}

/// Every node's current level, by name.
std::map<std::string, double> levels(const AbilityGraph& abilities) {
    std::map<std::string, double> out;
    for (const auto& name : abilities.node_names()) {
        out[name] = abilities.level(name);
    }
    return out;
}

/// The skills whose qualitative level changes in one propagate(), in the
/// order level_changed() reports them.
std::vector<std::string> change_order(AbilityGraph& abilities) {
    std::vector<std::string> order;
    const auto id = abilities.level_changed().subscribe(
        [&](const std::string& node, AbilityLevel, AbilityLevel) {
            order.push_back(node);
        });
    (void)abilities.propagate();
    abilities.level_changed().unsubscribe(id);
    return order;
}

// --- Skill-graph structure (instantiated by AbilityGraph) -------------------------

TEST(SkillGraph, BuildAndQuery) {
    const AbilityGraph g(tiny_spec());
    EXPECT_EQ(g.node_count(), 5u);
    EXPECT_EQ(g.edge_count(), 4u);
    EXPECT_EQ(g.node_names(), (std::vector<std::string>{"brake", "brake_hw", "drive",
                                                        "perceive", "radar"}));
    EXPECT_TRUE(g.has_node("drive"));
    EXPECT_FALSE(g.has_node("ghost"));
    EXPECT_EQ(g.kind("drive"), SkillNodeKind::Skill);
    EXPECT_EQ(g.kind("radar"), SkillNodeKind::DataSource);
    EXPECT_EQ(g.kind("brake_hw"), SkillNodeKind::DataSink);
    // drive is the only root: only it may be declared as the main skill.
    EXPECT_NO_THROW((void)AbilityGraph(tiny_spec().root("drive")));
    EXPECT_THROW((void)AbilityGraph(tiny_spec().root("perceive")), ContractViolation);
    EXPECT_THROW((void)AbilityGraph(tiny_spec().root("radar")), ContractViolation);
}

TEST(SkillGraph, SourcesCannotHaveDependencies) {
    SkillGraphSpec g("g");
    g.source("radar").skill("s").sink("out").depends("s", {"out"});
    EXPECT_NO_THROW((void)AbilityGraph(g));
    g.depends("radar", {"s"});
    EXPECT_THROW((void)AbilityGraph(g), ContractViolation);
}

TEST(SkillGraph, DanglingSkillFailsValidation) {
    SkillGraphSpec g("g");
    g.skill("lonely");
    EXPECT_THROW((void)AbilityGraph(g), SkillGraphError);
}

TEST(SkillGraph, CycleDetected) {
    SkillGraphSpec g("g");
    g.skill("a").skill("b").depends("a", {"b"}).depends("b", {"a"});
    EXPECT_THROW((void)AbilityGraph(g), SkillGraphError);
    // The same cycle below a root skill.
    g.skill("top").depends("top", {"a"});
    EXPECT_THROW((void)AbilityGraph(g), SkillGraphError);
}

TEST(SkillGraph, DuplicatesRejected) {
    SkillGraphSpec g("g");
    g.skill("a");
    EXPECT_THROW(g.skill("a"), ContractViolation);
    g.sink("b").depends("a", {"b"});
    EXPECT_NO_THROW((void)AbilityGraph(g));
    g.depends("a", {"b"});
    EXPECT_THROW((void)AbilityGraph(g), ContractViolation);
}

TEST(SkillGraph, TopologicalOrderChildrenFirst) {
    // Skills report level changes children first.
    AbilityGraph g(tiny_spec());
    g.set_source_level("radar", 0.0);
    g.set_source_level("brake_hw", 0.0);
    EXPECT_EQ(change_order(g), (std::vector<std::string>{"brake", "perceive", "drive"}));
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
    AbilityGraph ag(tiny_spec());
    ag.propagate();
    for (const auto& [name, level] : levels(ag)) {
        EXPECT_DOUBLE_EQ(level, 1.0) << name;
    }
    EXPECT_EQ(ag.ability("drive"), AbilityLevel::Nominal);
}

TEST(AbilityGraph, SourceDegradationPropagatesToRoot) {
    AbilityGraph ag(tiny_spec());
    ag.set_source_level("radar", 0.3);
    ag.propagate();
    EXPECT_DOUBLE_EQ(ag.level("perceive"), 0.3);
    EXPECT_DOUBLE_EQ(ag.level("drive"), 0.3); // min aggregation
    EXPECT_EQ(ag.ability("drive"), AbilityLevel::Marginal);
    EXPECT_DOUBLE_EQ(ag.level("brake"), 1.0); // untouched branch
}

TEST(AbilityGraph, IntrinsicLevelCapsSkill) {
    AbilityGraph ag(tiny_spec());
    ag.set_intrinsic_level("perceive", 0.6); // e.g. poor tracker performance
    ag.propagate();
    EXPECT_DOUBLE_EQ(ag.level("perceive"), 0.6);
    EXPECT_DOUBLE_EQ(ag.level("drive"), 0.6);
}

TEST(AbilityGraph, PropagationIsIdempotent) {
    AbilityGraph ag(tiny_spec());
    ag.set_source_level("radar", 0.5);
    ag.propagate();
    const auto snap1 = levels(ag);
    const auto changes = ag.propagate();
    EXPECT_EQ(changes, 0u);
    EXPECT_EQ(levels(ag), snap1);
}

TEST(AbilityGraph, LevelChangedSignalFiresOnQualitativeChange) {
    AbilityGraph ag(tiny_spec());
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
    auto g = tiny_spec();
    g.aggregate("drive", Aggregation::WeightedMean)
        .weight("drive", "perceive", 1.0)
        .weight("drive", "brake", 3.0);
    AbilityGraph ag(g);
    ag.set_source_level("radar", 0.0);
    ag.propagate();
    EXPECT_DOUBLE_EQ(ag.level("drive"), 0.75); // (0*1 + 1*3) / 4
}

TEST(AbilityGraph, RecoveryRestoresNominal) {
    AbilityGraph ag(tiny_spec());
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
        AbilityGraph base(tiny_spec());
        base.propagate();
        AbilityGraph degraded(tiny_spec());
        degraded.set_source_level("radar", level);
        degraded.propagate();
        for (const auto& [name, value] : levels(degraded)) {
            EXPECT_LE(value, base.level(name)) << name << " at " << level;
        }
    }
}

TEST(AbilityGraph, RejectsInvalidInputs) {
    AbilityGraph ag(tiny_spec());
    EXPECT_THROW(ag.set_source_level("ghost", 0.5), ContractViolation);
    EXPECT_THROW(ag.set_source_level("drive", 0.5), ContractViolation);
    EXPECT_THROW(ag.set_intrinsic_level("radar", 0.5), ContractViolation);
    EXPECT_THROW(ag.set_source_level("radar", 1.5), ContractViolation);
    EXPECT_THROW((void)ag.intrinsic_level("radar"), ContractViolation);
    EXPECT_THROW((void)ag.level("ghost"), ContractViolation);
}

TEST(AbilityGraph, RejectsInvalidAggregationsAndWeights) {
    EXPECT_THROW((void)AbilityGraph(tiny_spec().aggregate("radar", Aggregation::Product)),
                 ContractViolation);
    EXPECT_THROW((void)AbilityGraph(tiny_spec().aggregate("ghost", Aggregation::Product)),
                 ContractViolation);
    EXPECT_THROW((void)AbilityGraph(tiny_spec().weight("drive", "radar", 2.0)),
                 ContractViolation);
    EXPECT_THROW((void)AbilityGraph(tiny_spec().weight("ghost", "radar", 2.0)),
                 ContractViolation);
    EXPECT_THROW((void)AbilityGraph(tiny_spec().depends("drive", {"ghost"})),
                 ContractViolation);
}

// --- DegradationManager ------------------------------------------------------------------

TEST(Degradation, PlansCheapestApplicableTactic) {
    AbilityGraph ag(tiny_spec());
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
    AbilityGraph ag(tiny_spec());
    DegradationManager mgr;
    mgr.register_tactic(Tactic{"t", "drive", 0.0, 0.85, 1, [] {}, nullptr});
    ag.propagate();
    EXPECT_TRUE(mgr.plan(ag).empty());
}

TEST(Degradation, FiredTacticNotReplanned) {
    AbilityGraph ag(tiny_spec());
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
    AbilityGraph ag(tiny_spec());
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
    AbilityGraph ag(tiny_spec());
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

/// `parent`'s dependencies in declaration order.
std::vector<std::string> children(const SkillGraphSpec& spec, const std::string& parent) {
    std::vector<std::string> out;
    for (const auto& edge : spec.edges()) {
        if (edge.parent == parent) {
            out.push_back(edge.child);
        }
    }
    return out;
}

TEST(AccGraph, StructureMatchesPaper) {
    const SkillGraphSpec& g = *CapabilityRegistry::builtin().spec("acc");
    EXPECT_NO_THROW((void)AbilityGraph(g));
    EXPECT_EQ(g.root_skill(), acc::kAccDriving);

    // Main skill refinement per the paper's narration.
    const auto main_deps = children(g, acc::kAccDriving);
    EXPECT_EQ(main_deps, (std::vector<std::string>{acc::kControlDistance,
                                                   acc::kControlSpeed,
                                                   acc::kKeepControllable}));
    // "To keep the vehicle controllable ... estimate the driver's intent and
    // to be able to decelerate".
    EXPECT_EQ(children(g, acc::kKeepControllable),
              (std::vector<std::string>{acc::kEstimateDriverIntent, acc::kDecelerate}));
    // "For the selection of a target object ... perceive and track dynamic
    // objects which itself depends on environment sensors as data sources".
    EXPECT_EQ(children(g, acc::kSelectTarget),
              (std::vector<std::string>{acc::kPerceiveTrack}));
    // "To estimate the driver's intent, a form of HMI is required".
    EXPECT_EQ(children(g, acc::kEstimateDriverIntent),
              (std::vector<std::string>{acc::kHmi}));
    // "Acceleration and deceleration both require the powertrain ... while
    // deceleration also requires the braking system".
    EXPECT_EQ(children(g, acc::kAccelerate),
              (std::vector<std::string>{acc::kPowertrain}));
    EXPECT_EQ(children(g, acc::kDecelerate),
              (std::vector<std::string>{acc::kPowertrain, acc::kBrakeSystem}));
}

TEST(AccGraph, AggregateSensorVariant) {
    const AbilityGraph g(*CapabilityRegistry::builtin().spec("acc_aggregate_sensors"));
    EXPECT_TRUE(g.has_node("environment_sensors"));
    EXPECT_FALSE(g.has_node(acc::kRadar));
}

TEST(AccGraph, FogScenarioDegradesPerception) {
    const SkillGraphSpec& spec = *CapabilityRegistry::builtin().spec("acc");
    AbilityGraph ag(spec);
    // Dense fog: camera nearly blind, lidar poor, radar fine.
    ag.set_source_level(acc::kCamera, 0.1);
    ag.set_source_level(acc::kLidar, 0.35);
    ag.set_source_level(acc::kRadar, 0.9);
    ag.propagate();
    EXPECT_EQ(ag.ability(acc::kPerceiveTrack), AbilityLevel::Unavailable);
    EXPECT_EQ(ag.ability(acc::kAccDriving), AbilityLevel::Unavailable);

    // A fusion-aware perception stack (weighted mean) keeps partial ability.
    SkillGraphSpec fused_spec = spec;
    fused_spec.aggregate(acc::kPerceiveTrack, Aggregation::WeightedMean)
        .weight(acc::kPerceiveTrack, acc::kRadar, 3.0)
        .weight(acc::kPerceiveTrack, acc::kCamera, 1.0)
        .weight(acc::kPerceiveTrack, acc::kLidar, 1.0);
    AbilityGraph fused(fused_spec);
    fused.set_source_level(acc::kCamera, 0.1);
    fused.set_source_level(acc::kLidar, 0.35);
    fused.set_source_level(acc::kRadar, 0.9);
    fused.propagate();
    EXPECT_GT(fused.level(acc::kPerceiveTrack), 0.5);
}

// --- SkillGraphSpec ----------------------------------------------------------------

constexpr const char* kTinySpecText = R"(
    // the tiny_spec() fixture, as text, plus a root and weights
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
    EXPECT_EQ(children(spec, "drive"), (std::vector<std::string>{"perceive", "brake"}));
    EXPECT_EQ(spec.nodes()[3].description, "range sensor");
    const AbilityGraph g(spec);
    EXPECT_EQ(g.kind("radar"), SkillNodeKind::DataSource);
    EXPECT_EQ(g.kind("brake_hw"), SkillNodeKind::DataSink);
}

TEST(SkillGraphSpec, InstantiateAbilitiesAppliesAggregationAndWeights) {
    AbilityGraph abilities(SkillGraphSpec::parse(kTinySpecText));
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
    AbilityGraph a(spec);
    AbilityGraph b(reparsed);
    a.set_source_level("radar", 0.4);
    b.set_source_level("radar", 0.4);
    a.propagate();
    b.propagate();
    EXPECT_EQ(levels(a), levels(b));
}

TEST(SkillGraphSpec, ThreadsInstantiatingOneFreshSpecAgree) {
    // A freshly parsed spec has no compiled graph yet, so both threads reach
    // its first compilation at once; the TSan job checks the lock.
    AbilityGraph reference(SkillGraphSpec::parse(kTinySpecText));
    reference.set_source_level("radar", 0.4);
    reference.propagate();
    for (int round = 0; round < 8; ++round) {
        const SkillGraphSpec spec = SkillGraphSpec::parse(kTinySpecText);
        std::map<std::string, double> seen[2];
        std::latch start(2);
        const auto instantiate = [&](int index) {
            start.arrive_and_wait();
            AbilityGraph abilities(spec);
            abilities.set_source_level("radar", 0.4);
            abilities.propagate();
            seen[index] = levels(abilities);
        };
        std::thread other(instantiate, 1);
        instantiate(0);
        other.join();
        EXPECT_EQ(seen[0], levels(reference)) << "round " << round;
        EXPECT_EQ(seen[1], levels(reference)) << "round " << round;
    }
}

TEST(SkillGraphSpec, DeclarationAfterInstantiationRecompiles) {
    // A graph keeps the structure it was compiled from; a later declaration
    // on the spec reaches only graphs instantiated after it, and so does a
    // copy of the changed spec.
    SkillGraphSpec spec = tiny_spec();
    AbilityGraph before(spec);
    spec.aggregate("drive", Aggregation::WeightedMean).weight("drive", "perceive", 3.0);
    AbilityGraph after(spec);
    const SkillGraphSpec copy = spec;
    AbilityGraph copied(copy);
    for (AbilityGraph* abilities : {&before, &after, &copied}) {
        abilities->set_source_level("radar", 0.0);
        abilities->propagate();
    }
    EXPECT_DOUBLE_EQ(before.level("drive"), 0.0);  // min over perceive 0
    EXPECT_DOUBLE_EQ(after.level("drive"), 0.25);  // (0 * 3 + 1 * 1) / 4
    EXPECT_DOUBLE_EQ(copied.level("drive"), 0.25);
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
    EXPECT_THROW((void)AbilityGraph(bad), ContractViolation);
}

// --- Propagation semantics -----------------------------------------------------------

/// Reference propagation, read straight off the spec's declarations: a
/// skill's level is the aggregate of its children's levels (in edge
/// declaration order, with the declared weights), capped by its intrinsic
/// level. `inputs` holds source/sink levels and skill intrinsics.
double reference_level(const SkillGraphSpec& spec, const std::string& node,
                       const std::map<std::string, double>& inputs) {
    if (spec.node_kind(node) != SkillNodeKind::Skill) {
        return inputs.at(node);
    }
    Aggregation aggregation = Aggregation::Min;
    for (const auto& decl : spec.aggregations()) {
        if (decl.skill == node) {
            aggregation = decl.aggregation;
        }
    }
    std::vector<WeightedLevel> levels;
    for (const auto& child : children(spec, node)) {
        double weight = 1.0;
        for (const auto& decl : spec.weights()) {
            if (decl.skill == node && decl.child == child) {
                weight = decl.weight;
            }
        }
        levels.push_back({reference_level(spec, child, inputs), weight});
    }
    return std::min(inputs.at(node), aggregate(aggregation, levels));
}

TEST(AbilityGraph, MatchesReferenceEvaluatorOnBuiltinSpecs) {
    const auto& registry = CapabilityRegistry::builtin();
    const double grid[] = {0.0, 0.1, 0.15, 0.35, 0.5, 0.6, 0.85, 0.9, 1.0};
    RandomEngine rng(18);
    for (const auto& spec_name : registry.spec_names()) {
        const SkillGraphSpec& spec = *registry.spec(spec_name);
        AbilityGraph abilities(spec);
        for (int trial = 0; trial < 64; ++trial) {
            std::map<std::string, double> inputs;
            for (const auto& node : spec.node_names()) {
                const double level = grid[rng.index(std::size(grid))];
                inputs[node] = level;
                if (spec.node_kind(node) == SkillNodeKind::Skill) {
                    abilities.set_intrinsic_level(node, level);
                } else {
                    abilities.set_source_level(node, level);
                }
            }
            abilities.propagate();
            for (const auto& node : spec.node_names()) {
                EXPECT_EQ(abilities.level(node), reference_level(spec, node, inputs))
                    << spec_name << " trial " << trial << ": " << node;
            }
        }
    }
}

TEST(AbilityGraph, PropagationOrderIsPinned) {
    // Kahn's algorithm, children first, the smallest ready name first. Skills
    // report level changes in this order; sources and sinks never change in
    // propagate(), so only the skills' places are observable.
    const std::map<std::string, std::vector<std::string>> orders{
        {"acc",
         {"brake_system", "camera", "hmi", "estimate_driver_intent", "lidar",
          "powertrain", "accelerate", "decelerate", "keep_vehicle_controllable", "radar",
          "perceive_track_dynamic_objects", "select_target_object", "control_distance",
          "control_speed", "acc_driving"}},
        {"acc_aggregate_sensors",
         {"brake_system", "environment_sensors", "hmi", "estimate_driver_intent",
          "perceive_track_dynamic_objects", "powertrain", "accelerate", "decelerate",
          "keep_vehicle_controllable", "select_target_object", "control_distance",
          "control_speed", "acc_driving"}},
        {"emergency_stop",
         {"brake_system", "camera", "full_braking", "hazard_lights", "radar",
          "detect_obstacle", "warn_traffic", "emergency_stop"}},
        {"lane_keep",
         {"camera", "detect_lane_markings", "hmi", "estimate_driver_intent", "imu",
          "steering", "wheel_odometry", "estimate_vehicle_state", "lateral_control",
          "lane_keeping"}},
        {"platoon_follow",
         {"brake_system", "powertrain", "accelerate", "decelerate", "radar", "v2v_link",
          "receive_platoon_commands", "track_lead_vehicle", "control_gap",
          "platoon_follow"}},
    };
    const auto& registry = CapabilityRegistry::builtin();
    ASSERT_EQ(registry.spec_names().size(), orders.size());
    for (const auto& [spec_name, order] : orders) {
        AbilityGraph abilities(*registry.spec(spec_name));
        std::vector<std::string> skills;
        for (const auto& node : order) {
            if (abilities.kind(node) == SkillNodeKind::Skill) {
                skills.push_back(node);
            } else {
                abilities.set_source_level(node, 0.0); // every skill changes
            }
        }
        EXPECT_EQ(order.size(), abilities.node_count()) << spec_name;
        EXPECT_EQ(change_order(abilities), skills) << spec_name;
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
        const auto& spec = *registry.spec(name);
        const AbilityGraph g(spec);
        EXPECT_FALSE(spec.root_skill().empty()) << name;
        // Every spec node is a registered capability of the declared kind.
        for (const auto& node : spec.node_names()) {
            ASSERT_TRUE(registry.has_capability(node)) << name << "/" << node;
            EXPECT_EQ(registry.capability(node).node_kind, g.kind(node))
                << name << "/" << node;
        }
    }
    EXPECT_GE(registry.capability_count(), 30u);
}

/// Skills no other node depends on.
std::vector<std::string> roots(const SkillGraphSpec& spec) {
    std::vector<std::string> out;
    for (const auto& node : spec.nodes()) {
        const bool has_parent =
            std::any_of(spec.edges().begin(), spec.edges().end(),
                        [&](const auto& edge) { return edge.child == node.name; });
        if (node.kind == SkillNodeKind::Skill && !has_parent) {
            out.push_back(node.name);
        }
    }
    return out;
}

TEST(CapabilityRegistry, NewManeuverGraphsHaveExpectedRoots) {
    const auto& registry = CapabilityRegistry::builtin();
    EXPECT_EQ(roots(*registry.spec("lane_keep")),
              (std::vector<std::string>{caps::kLaneKeeping}));
    EXPECT_EQ(roots(*registry.spec("emergency_stop")),
              (std::vector<std::string>{caps::kEmergencyStop}));
    EXPECT_EQ(roots(*registry.spec("platoon_follow")),
              (std::vector<std::string>{caps::kPlatoonFollow}));

    // platoon_follow: losing V2V degrades command reception hard but the
    // radar-dominant tracking fusion keeps partial follow ability.
    AbilityGraph abilities(*registry.spec("platoon_follow"));
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
    AbilityGraph abilities(*CapabilityRegistry::builtin().spec("acc"));
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
    AbilityGraph abilities(*CapabilityRegistry::builtin().spec("acc"));
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
    AbilityGraph abilities(*CapabilityRegistry::builtin().spec("acc"));
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
    AbilityGraph abilities(*CapabilityRegistry::builtin().spec("acc"));
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
    AbilityGraph abilities(*CapabilityRegistry::builtin().spec("acc"));
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
    AbilityGraph abilities(*CapabilityRegistry::builtin().spec("lane_keep"));
    DegradationPolicy policy;
    EXPECT_FALSE(policy.apply(sensor_anomaly("sensor_failed", acc::kRadar), abilities));
    EXPECT_TRUE(policy.apply(sensor_anomaly("sensor_failed", acc::kCamera), abilities));
    abilities.propagate();
    EXPECT_EQ(abilities.ability(caps::kDetectLaneMarkings), AbilityLevel::Unavailable);
}

TEST(AccGraph, RearBrakeLossScenario) {
    // §V: rear braking compromised -> brake_system sink degraded -> decelerate
    // and everything above it degrade, but accelerate stays nominal.
    AbilityGraph ag(*CapabilityRegistry::builtin().spec("acc"));
    ag.set_source_level(acc::kBrakeSystem, 0.35);
    ag.propagate();
    EXPECT_EQ(ag.ability(acc::kDecelerate), AbilityLevel::Marginal);
    EXPECT_EQ(ag.ability(acc::kAccelerate), AbilityLevel::Nominal);
    EXPECT_EQ(ag.ability(acc::kKeepControllable), AbilityLevel::Marginal);
    EXPECT_EQ(ag.ability(acc::kAccDriving), AbilityLevel::Marginal);
}

} // namespace
