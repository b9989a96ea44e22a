#pragma once
// Ability graph: the runtime instantiation of a skill graph (§IV: "an
// ability is derived from an abstract skill by instantiation and including
// information about the ability's current performance. ... Within the
// implemented system ability graphs are used during operation of the vehicle
// to monitor the current system performance. The ability level of the
// vehicle can then guide decision making").
//
// Each node carries a performance level in [0, 1]. Sources/sinks get their
// levels from monitors (sensor quality, actuator health); skills combine an
// intrinsic level (own performance, e.g. control quality) with an
// aggregation of their dependencies. propagate() recomputes bottom-up.
//
// The constructor is the only way to instantiate a SkillGraphSpec. The first
// graph of a spec validates it and compiles its CompiledGraph: names, kinds,
// dense ids, weighted edges, aggregations, topological order, name index.
// That stays with the spec and every later graph of it shares it (each
// identical vehicle of a campaign cell); a graph owns only levels, intrinsic
// levels, source bindings and level_changed(). propagate() walks ids.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "monitor/sensor_quality_monitor.hpp"
#include "sim/signal.hpp"
#include "skills/aggregation.hpp"
#include "skills/skill_graph_spec.hpp"

namespace sa::skills {

/// Qualitative ability level derived from the numeric score.
enum class AbilityLevel { Unavailable, Marginal, Reduced, Nominal };

const char* to_string(AbilityLevel level) noexcept;

/// Lower bounds of the qualitative levels: a score >= kNominalLevel is
/// Nominal, >= kReducedLevel Reduced, >= kMarginalLevel Marginal, and below
/// that Unavailable.
inline constexpr double kNominalLevel = 0.85;
inline constexpr double kReducedLevel = 0.50;
inline constexpr double kMarginalLevel = 0.15;

AbilityLevel classify(double level);

/// The part of an ability graph that never changes; one per spec.
struct CompiledGraph {
    using NodeId = std::uint32_t;
    struct Node {
        std::string name;
        SkillNodeKind kind = SkillNodeKind::Skill;
        Aggregation aggregation = Aggregation::Min;
        std::vector<NodeId> children; ///< edge-declaration order
        std::vector<double> weights;  ///< per child
    };

    /// Throws what AbilityGraph's constructor documents.
    explicit CompiledGraph(const SkillGraphSpec& spec);
    [[nodiscard]] NodeId id(const std::string& name) const;

    std::vector<Node> nodes;  ///< indexed by id; ids follow name order
    std::vector<NodeId> topo; ///< children first, smallest ready name first
    std::map<std::string, NodeId> ids;
    std::size_t edge_count = 0;
    std::size_t max_children = 0;
};

class AbilityGraph {
public:
    /// Instantiate `spec` with its aggregations and dependency weights.
    /// Throws ContractViolation on an unknown node, a dependency of a source
    /// or sink, a duplicate edge, a declared root that is not a root skill,
    /// an aggregation on a non-skill, or a weight on a missing edge; throws
    /// SkillGraphError on a skill without dependencies, no root skill, or a
    /// cycle. Threads may instantiate one spec at once (it compiles once).
    explicit AbilityGraph(const SkillGraphSpec& spec);

    // bind_source() hands `this` to a monitor callback, so the graph stays put.
    AbilityGraph(const AbilityGraph&) = delete;
    AbilityGraph& operator=(const AbilityGraph&) = delete;

    [[nodiscard]] bool has_node(const std::string& name) const;
    [[nodiscard]] SkillNodeKind kind(const std::string& name) const;
    /// Node names, sorted.
    [[nodiscard]] std::vector<std::string> node_names() const;
    [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
    [[nodiscard]] std::size_t edge_count() const noexcept { return graph_->edge_count; }

    /// Set a source/sink level (monitor input). Does not propagate.
    void set_source_level(const std::string& name, double level);

    /// Set a skill's intrinsic performance (its own monitor, e.g. control
    /// performance). Default 1.0. Does not propagate.
    void set_intrinsic_level(const std::string& skill, double level);
    /// A skill's intrinsic performance as last set (1.0 by default).
    [[nodiscard]] double intrinsic_level(const std::string& skill) const;

    /// Recompute all skill levels bottom-up. Returns the number of nodes
    /// whose qualitative level changed.
    std::size_t propagate();

    [[nodiscard]] double level(const std::string& name) const;
    [[nodiscard]] AbilityLevel ability(const std::string& name) const;
    /// Nodes whose qualitative level is below Nominal.
    [[nodiscard]] std::size_t below_nominal_count() const;

    /// Emitted from propagate() for each node whose qualitative level
    /// changed: (node, old level, new level).
    sim::Signal<const std::string&, AbilityLevel, AbilityLevel>& level_changed() noexcept {
        return level_changed_;
    }

    /// Convenience: drive a source or sink level from a sensor-quality
    /// monitor. Subscribes to quality updates; each update sets the level
    /// and propagates.
    void bind_source(const std::string& source, monitor::SensorQualityMonitor& monitor);

private:
    using NodeId = CompiledGraph::NodeId;
    struct NodeState {
        double level = 1.0;     ///< current propagated level
        double intrinsic = 1.0; ///< skills only
    };

    std::shared_ptr<const CompiledGraph> graph_; ///< shared with the spec
    std::vector<NodeState> nodes_;      ///< indexed by the compiled ids
    std::vector<WeightedLevel> inputs_; ///< propagate() scratch, reused
    sim::Signal<const std::string&, AbilityLevel, AbilityLevel> level_changed_;
};

} // namespace sa::skills
