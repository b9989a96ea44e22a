#include "skills/ability_graph.hpp"

#include <algorithm>
#include <functional>
#include <queue>

#include "util/assert.hpp"

namespace sa::skills {

const char* to_string(AbilityLevel level) noexcept {
    switch (level) {
    case AbilityLevel::Unavailable: return "unavailable";
    case AbilityLevel::Marginal: return "marginal";
    case AbilityLevel::Reduced: return "reduced";
    case AbilityLevel::Nominal: return "nominal";
    }
    return "?";
}

AbilityLevel classify(double level) {
    if (level >= kNominalLevel) {
        return AbilityLevel::Nominal;
    }
    if (level >= kReducedLevel) {
        return AbilityLevel::Reduced;
    }
    if (level >= kMarginalLevel) {
        return AbilityLevel::Marginal;
    }
    return AbilityLevel::Unavailable;
}

CompiledGraph::CompiledGraph(const SkillGraphSpec& spec) {
    // Ids follow name order, so Kahn's "smallest ready name" below is the
    // smallest ready id. The spec already rejects duplicate node names.
    std::vector<const SkillGraphSpec::NodeDecl*> decls;
    for (const auto& decl : spec.nodes()) {
        decls.push_back(&decl);
    }
    std::sort(decls.begin(), decls.end(),
              [](const auto* a, const auto* b) { return a->name < b->name; });
    for (const auto* decl : decls) {
        ids.emplace(decl->name, static_cast<NodeId>(nodes.size()));
        Node& node = nodes.emplace_back();
        node.name = decl->name;
        node.kind = decl->kind;
    }

    std::vector<std::vector<NodeId>> parents(nodes.size());
    for (const auto& edge : spec.edges()) {
        const NodeId parent = id(edge.parent);
        const NodeId child = id(edge.child);
        Node& node = nodes[parent];
        SA_REQUIRE(node.kind == SkillNodeKind::Skill,
                   "only skills can have dependencies: " + edge.parent);
        SA_REQUIRE(std::find(node.children.begin(), node.children.end(), child) ==
                       node.children.end(),
                   "duplicate dependency: " + edge.parent + " -> " + edge.child);
        node.children.push_back(child);
        node.weights.push_back(1.0);
        parents[child].push_back(parent);
        max_children = std::max(max_children, node.children.size());
    }
    edge_count = spec.edges().size();

    // The structural rules of [22]: paths end at sources/sinks, not at
    // skills; a main skill exists; the graph is acyclic.
    auto is_root = [&](NodeId i) {
        return nodes[i].kind == SkillNodeKind::Skill && parents[i].empty();
    };
    bool has_root = false;
    for (NodeId i = 0; i < nodes.size(); ++i) {
        if (nodes[i].kind == SkillNodeKind::Skill && nodes[i].children.empty()) {
            throw SkillGraphError("skill has no dependencies (dangling path): " +
                                  nodes[i].name);
        }
        has_root = has_root || is_root(i);
    }
    if (!has_root) {
        throw SkillGraphError("graph has no root (main) skill");
    }
    // Kahn's algorithm over the child -> parent direction: children first.
    std::vector<std::size_t> pending(nodes.size());
    std::priority_queue<NodeId, std::vector<NodeId>, std::greater<>> ready;
    for (NodeId i = 0; i < nodes.size(); ++i) {
        pending[i] = nodes[i].children.size();
        if (pending[i] == 0) {
            ready.push(i);
        }
    }
    while (!ready.empty()) {
        const NodeId next = ready.top();
        ready.pop();
        topo.push_back(next);
        for (const NodeId parent : parents[next]) {
            if (--pending[parent] == 0) {
                ready.push(parent);
            }
        }
    }
    if (topo.size() != nodes.size()) {
        throw SkillGraphError("graph contains a cycle");
    }

    const std::string& root = spec.root_skill();
    SA_REQUIRE(root.empty() || (ids.contains(root) && is_root(id(root))),
               "spec '" + spec.name() + "': declared root '" + root +
                   "' is not a root skill of the instantiated graph");
    for (const auto& agg : spec.aggregations()) {
        SA_REQUIRE(ids.contains(agg.skill) &&
                       nodes[id(agg.skill)].kind == SkillNodeKind::Skill,
                   "aggregation applies to skills: " + agg.skill);
        nodes[id(agg.skill)].aggregation = agg.aggregation;
    }
    for (const auto& w : spec.weights()) {
        SA_REQUIRE(w.weight > 0.0, "weights must be positive");
        Node& node = nodes[id(w.skill)];
        const auto it =
            std::find(node.children.begin(), node.children.end(), id(w.child));
        SA_REQUIRE(it != node.children.end(),
                   "no dependency " + w.skill + " -> " + w.child);
        node.weights[static_cast<std::size_t>(it - node.children.begin())] = w.weight;
    }
}

CompiledGraph::NodeId CompiledGraph::id(const std::string& name) const {
    const auto it = ids.find(name);
    SA_REQUIRE(it != ids.end(), "unknown node: " + name);
    return it->second;
}

AbilityGraph::AbilityGraph(const SkillGraphSpec& spec)
    : graph_(spec.compiled()), nodes_(graph_->nodes.size()) {
    inputs_.reserve(graph_->max_children);
}

bool AbilityGraph::has_node(const std::string& name) const {
    return graph_->ids.contains(name);
}

SkillNodeKind AbilityGraph::kind(const std::string& name) const {
    return graph_->nodes[graph_->id(name)].kind;
}

std::vector<std::string> AbilityGraph::node_names() const {
    std::vector<std::string> out;
    out.reserve(graph_->nodes.size());
    for (const auto& node : graph_->nodes) {
        out.push_back(node.name);
    }
    return out;
}

void AbilityGraph::set_source_level(const std::string& name, double level) {
    const NodeId node = graph_->id(name);
    SA_REQUIRE(graph_->nodes[node].kind != SkillNodeKind::Skill,
               "set_source_level is for sources/sinks; use set_intrinsic_level for " + name);
    SA_REQUIRE(level >= 0.0 && level <= 1.0, "levels must be within [0,1]");
    nodes_[node].level = level;
}

void AbilityGraph::set_intrinsic_level(const std::string& skill, double level) {
    const NodeId node = graph_->id(skill);
    SA_REQUIRE(graph_->nodes[node].kind == SkillNodeKind::Skill,
               "set_intrinsic_level is for skills: " + skill);
    SA_REQUIRE(level >= 0.0 && level <= 1.0, "levels must be within [0,1]");
    nodes_[node].intrinsic = level;
}

double AbilityGraph::intrinsic_level(const std::string& skill) const {
    const NodeId node = graph_->id(skill);
    SA_REQUIRE(graph_->nodes[node].kind == SkillNodeKind::Skill, "not a skill: " + skill);
    return nodes_[node].intrinsic;
}

std::size_t AbilityGraph::propagate() {
    std::size_t qualitative_changes = 0;
    for (const NodeId i : graph_->topo) {
        const CompiledGraph::Node& node = graph_->nodes[i];
        if (node.kind != SkillNodeKind::Skill) {
            continue; // sources/sinks are inputs
        }
        inputs_.clear();
        for (std::size_t c = 0; c < node.children.size(); ++c) {
            inputs_.push_back(
                WeightedLevel{nodes_[node.children[c]].level, node.weights[c]});
        }
        NodeState& state = nodes_[i];
        const double next =
            std::min(state.intrinsic, aggregate(node.aggregation, inputs_));
        const AbilityLevel before = classify(state.level);
        const AbilityLevel after = classify(next);
        if (before != after) {
            ++qualitative_changes;
            level_changed_.emit(node.name, before, after);
        }
        state.level = next;
    }
    return qualitative_changes;
}

double AbilityGraph::level(const std::string& name) const {
    return nodes_[graph_->id(name)].level;
}

AbilityLevel AbilityGraph::ability(const std::string& name) const {
    return classify(level(name));
}

std::size_t AbilityGraph::below_nominal_count() const {
    std::size_t below = 0;
    for (const NodeState& node : nodes_) {
        below += classify(node.level) != AbilityLevel::Nominal ? 1 : 0;
    }
    return below;
}

void AbilityGraph::bind_source(const std::string& source,
                               monitor::SensorQualityMonitor& monitor) {
    SA_REQUIRE(kind(source) != SkillNodeKind::Skill,
               "bind_source feeds a data source or sink, not skill " + source);
    monitor.quality_updated().subscribe([this, node = graph_->id(source)](double quality) {
        nodes_[node].level = std::clamp(quality, 0.0, 1.0);
        propagate();
    });
}

} // namespace sa::skills
