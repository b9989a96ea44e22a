#pragma once
// Skill graphs after Reschka et al. [22] (§IV): "a directed acyclic graph
// that consists of skill nodes, data sink nodes, data source nodes, and
// dependency relations between the nodes. A path in this DAG, starting with
// a main skill and ending at a data source or data sink, represents a chain
// of dependencies between abilities."
//
// SkillGraphSpec is the one skill-graph model: a *declarative* description
// of such a DAG, the development artifact Nolte et al. argue skill graphs
// should be (composed from a capability catalogue instead of hand-written
// per-maneuver C++ factories). A spec carries the ordered node/dependency
// declarations, the per-skill aggregation choices, per-edge weights and the
// root skill, and can be
//   - built programmatically (builder-style chaining),
//   - parsed from a compact text form (mirroring model/contract_parser), or
//   - serialized back to that text form (str(); parse(str()) round-trips).
// A spec only records declarations; AbilityGraph(spec) (ability_graph.hpp)
// validates them and instantiates the runtime graph. Vehicles share one
// std::shared_ptr<const SkillGraphSpec>, and with it the structure the first
// graph instantiated from that spec compiled.
//
// Text grammar (tokens follow the shared lexical rules in util/lexer.hpp;
// malformed text throws util::ParseError with its line):
//
//   graph <name> {
//     root <skill>;
//     skill  <name> ["description"];
//     source <name> ["description"];
//     sink   <name> ["description"];
//     <parent> -> <child> [<child> ...];        // dependency fan-out
//     aggregate <skill> min|product|weighted_mean;
//     weight <skill> <child> <number>;          // digits with at most one '.'
//   }

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "skills/aggregation.hpp"
#include "util/lexer.hpp"

namespace sa::skills {

enum class SkillNodeKind { Skill, DataSource, DataSink };

class AbilityGraph;
struct CompiledGraph; // ability_graph.hpp

const char* to_string(SkillNodeKind kind) noexcept;

/// Thrown when instantiating a spec whose graph breaks a structural rule of
/// [22]: a skill without dependencies, no root skill, or a cycle.
class SkillGraphError : public std::logic_error {
public:
    explicit SkillGraphError(const std::string& what) : std::logic_error(what) {}
};

class SkillGraphSpec {
public:
    struct NodeDecl {
        std::string name;
        SkillNodeKind kind = SkillNodeKind::Skill;
        std::string description;
    };
    struct EdgeDecl {
        std::string parent;
        std::string child;
    };
    struct AggregateDecl {
        std::string skill;
        Aggregation aggregation;
    };
    struct WeightDecl {
        std::string skill;
        std::string child;
        double weight;
    };

    SkillGraphSpec() = default;
    /// `name` must be an identifier ([A-Za-z_][A-Za-z0-9_]*), like every
    /// node name: anything else could not round-trip through the text form.
    explicit SkillGraphSpec(std::string name);

    /// Parse exactly one `graph <name> { ... }` block; throws
    /// util::ParseError, also for a node declared twice.
    [[nodiscard]] static SkillGraphSpec parse(const std::string& text);

    // --- builder-style declaration (order is preserved) ---------------------
    SkillGraphSpec& skill(std::string name, std::string description = {});
    SkillGraphSpec& source(std::string name, std::string description = {});
    SkillGraphSpec& sink(std::string name, std::string description = {});
    /// `parent` (a skill) depends on each of `children`, in order.
    SkillGraphSpec& depends(const std::string& parent,
                            const std::vector<std::string>& children);
    SkillGraphSpec& aggregate(std::string skill, Aggregation aggregation);
    SkillGraphSpec& weight(std::string skill, std::string child, double weight);
    SkillGraphSpec& root(std::string skill);

    // --- introspection ------------------------------------------------------
    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] const std::string& root_skill() const noexcept { return root_; }
    [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
    [[nodiscard]] std::size_t edge_count() const noexcept { return edges_.size(); }
    [[nodiscard]] bool declares_node(const std::string& name) const;
    [[nodiscard]] std::vector<std::string> node_names() const;
    [[nodiscard]] SkillNodeKind node_kind(const std::string& name) const;
    /// Raw declarations in declaration order — what sa::lint inspects
    /// without instantiating (AbilityGraph(spec) throws on the defects lint
    /// is supposed to *report*).
    [[nodiscard]] const std::vector<NodeDecl>& nodes() const noexcept {
        return nodes_;
    }
    [[nodiscard]] const std::vector<EdgeDecl>& edges() const noexcept {
        return edges_;
    }
    [[nodiscard]] const std::vector<AggregateDecl>& aggregations() const noexcept {
        return aggregates_;
    }
    [[nodiscard]] const std::vector<WeightDecl>& weights() const noexcept {
        return weights_;
    }

    /// Serialize to the text grammar above; parse(str()) reproduces the spec.
    [[nodiscard]] std::string str() const;

private:
    friend class AbilityGraph;

    /// AbilityGraph's compiled form of these declarations, built once under
    /// one lock for all specs (compiled()). A copy starts without it:
    /// reading it could race a compilation.
    struct Compiled {
        std::shared_ptr<const CompiledGraph> graph;
        Compiled() = default;
        Compiled(const Compiled& /*other*/) noexcept {}
        Compiled& operator=(const Compiled& other) noexcept {
            if (this != &other) {
                graph.reset();
            }
            return *this;
        }
    };

    /// The compiled graph, compiling it on first use; throws as AbilityGraph.
    [[nodiscard]] std::shared_ptr<const CompiledGraph> compiled() const;
    SkillGraphSpec& add_node(NodeDecl decl);
    SkillGraphSpec& changed() noexcept; ///< drops the compiled graph
    [[nodiscard]] const NodeDecl* find_node(const std::string& name) const;

    std::string name_;
    std::string root_;
    std::vector<NodeDecl> nodes_;
    std::vector<EdgeDecl> edges_;
    std::vector<AggregateDecl> aggregates_;
    std::vector<WeightDecl> weights_;
    mutable Compiled compiled_;
};

/// Parse the textual aggregation name ("min", "product", "weighted_mean").
/// Returns false when `text` names no aggregation.
[[nodiscard]] bool aggregation_from_string(const std::string& text, Aggregation& out);

} // namespace sa::skills
