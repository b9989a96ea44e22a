#include "lint/skills_rules.hpp"

#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/string_util.hpp"

namespace sa::lint {
namespace {

using skills::Aggregation;
using skills::SkillGraphSpec;
using skills::SkillNodeKind;

std::string spec_subject(const SkillGraphSpec& spec, const std::string& what) {
    return "spec " + spec.name() + " / " + what;
}

/// Depth-first cycle search over the spec's edges; reports one finding per
/// back edge, rendering the cycle path.
class CycleFinder {
public:
    CycleFinder(const SkillGraphSpec& spec,
                const std::map<std::string, std::vector<std::string>>& children)
        : spec_(spec), children_(children) {}

    void run(LintReport& report) {
        for (const auto& node : spec_.nodes()) {
            visit(node.name, report);
        }
    }

private:
    void visit(const std::string& node, LintReport& report) {
        if (done_.contains(node)) {
            return;
        }
        if (on_stack_.contains(node)) {
            report_cycle(node, report);
            return;
        }
        on_stack_.insert(node);
        stack_.push_back(node);
        auto it = children_.find(node);
        if (it != children_.end()) {
            for (const std::string& child : it->second) {
                visit(child, report);
            }
        }
        stack_.pop_back();
        on_stack_.erase(node);
        done_.insert(node);
    }

    void report_cycle(const std::string& node, LintReport& report) {
        std::string path = node;
        bool in_cycle = false;
        for (const std::string& step : stack_) {
            if (step == node) {
                in_cycle = true;
                continue;
            }
            if (in_cycle) {
                path += " -> " + step;
            }
        }
        path += " -> " + node;
        report.add("SKL001", spec_subject(spec_, "skill " + node),
                   "dependency cycle: " + path);
    }

    const SkillGraphSpec& spec_;
    const std::map<std::string, std::vector<std::string>>& children_;
    std::set<std::string> on_stack_;
    std::set<std::string> done_;
    std::vector<std::string> stack_;
};

} // namespace

LintReport lint_spec(const SkillGraphSpec& spec,
                     const skills::CapabilityRegistry* catalogue) {
    LintReport report;

    std::map<std::string, SkillNodeKind> kinds;
    for (const auto& node : spec.nodes()) {
        kinds.emplace(node.name, node.kind);
    }
    auto declared = [&](const std::string& name) { return kinds.contains(name); };
    auto is_skill = [&](const std::string& name) {
        auto it = kinds.find(name);
        return it != kinds.end() && it->second == SkillNodeKind::Skill;
    };

    // SKL004: dangling declarations. Only well-formed edges feed the cycle
    // and reachability passes below.
    std::map<std::string, std::vector<std::string>> children;
    std::set<std::string> has_parent;
    std::set<std::pair<std::string, std::string>> edge_set;
    for (const auto& edge : spec.edges()) {
        bool ok = true;
        if (!declared(edge.parent)) {
            report.add("SKL004", spec_subject(spec, "edge " + edge.parent),
                       "dependency parent '" + edge.parent + "' is not declared");
            ok = false;
        } else if (!is_skill(edge.parent)) {
            report.add("SKL004", spec_subject(spec, "edge " + edge.parent),
                       "dependency parent '" + edge.parent +
                           "' is not a skill (sources/sinks have no dependencies)");
            ok = false;
        }
        if (!declared(edge.child)) {
            report.add("SKL004", spec_subject(spec, "edge " + edge.child),
                       "dependency child '" + edge.child + "' is not declared");
            ok = false;
        }
        if (ok) {
            children[edge.parent].push_back(edge.child);
            has_parent.insert(edge.child);
            edge_set.emplace(edge.parent, edge.child);
        }
    }
    for (const auto& aggregate : spec.aggregations()) {
        if (!declared(aggregate.skill)) {
            report.add("SKL004", spec_subject(spec, "aggregate " + aggregate.skill),
                       "aggregation names undeclared node '" + aggregate.skill + "'");
        } else if (!is_skill(aggregate.skill)) {
            report.add("SKL004", spec_subject(spec, "aggregate " + aggregate.skill),
                       "aggregation on '" + aggregate.skill +
                           "', which is not a skill");
        }
    }
    for (const auto& weight : spec.weights()) {
        if (!declared(weight.skill) || !declared(weight.child)) {
            report.add("SKL004",
                       spec_subject(spec, "weight " + weight.skill + " -> " +
                                              weight.child),
                       "weight names an undeclared node");
        } else if (!edge_set.contains({weight.skill, weight.child})) {
            report.add("SKL004",
                       spec_subject(spec, "weight " + weight.skill + " -> " +
                                              weight.child),
                       "weight on a pair with no declared dependency edge");
        }
    }
    if (!spec.root_skill().empty() && !is_skill(spec.root_skill())) {
        report.add("SKL004", spec_subject(spec, "root " + spec.root_skill()),
                   "root must name a declared skill");
    }

    // SKL001: dependency cycles.
    CycleFinder{spec, children}.run(report);

    // SKL002: reachability from the root skill — or, with no root declared,
    // from every skill that is itself no other skill's dependency.
    std::vector<std::string> roots;
    if (!spec.root_skill().empty() && is_skill(spec.root_skill())) {
        roots.push_back(spec.root_skill());
    } else {
        for (const auto& node : spec.nodes()) {
            if (node.kind == SkillNodeKind::Skill &&
                !has_parent.contains(node.name)) {
                roots.push_back(node.name);
            }
        }
    }
    std::set<std::string> reachable{roots.begin(), roots.end()};
    std::vector<std::string> frontier = roots;
    while (!frontier.empty()) {
        std::string node = std::move(frontier.back());
        frontier.pop_back();
        auto it = children.find(node);
        if (it == children.end()) {
            continue;
        }
        for (const std::string& child : it->second) {
            if (reachable.insert(child).second) {
                frontier.push_back(child);
            }
        }
    }
    for (const auto& node : spec.nodes()) {
        if (!reachable.contains(node.name)) {
            report.add("SKL002", spec_subject(spec, "node " + node.name),
                       spec.root_skill().empty()
                           ? "unreachable from every root skill"
                           : "unreachable from root '" + spec.root_skill() + "'");
        }
    }

    // SKL003: weighted_mean aggregations must weight every child.
    for (const auto& aggregate : spec.aggregations()) {
        if (aggregate.aggregation != Aggregation::WeightedMean) {
            continue;
        }
        auto it = children.find(aggregate.skill);
        const std::vector<std::string> kids =
            it == children.end() ? std::vector<std::string>{} : it->second;
        std::set<std::string> weighted;
        for (const auto& weight : spec.weights()) {
            if (weight.skill == aggregate.skill) {
                weighted.insert(weight.child);
            }
        }
        for (const std::string& child : kids) {
            if (!weighted.contains(child)) {
                report.add("SKL003",
                           spec_subject(spec, "aggregate " + aggregate.skill),
                           "weighted_mean lacks a weight for child '" + child +
                               "'");
            }
        }
        if (kids.empty()) {
            report.add("SKL003", spec_subject(spec, "aggregate " + aggregate.skill),
                       "weighted_mean on a skill with no dependencies");
        }
    }

    // SKL005: every node must be a catalogue capability of the same kind.
    if (catalogue != nullptr) {
        for (const auto& node : spec.nodes()) {
            if (!catalogue->has_capability(node.name)) {
                report.add("SKL005", spec_subject(spec, "node " + node.name),
                           "capability is not in the catalogue");
            } else if (catalogue->capability(node.name).node_kind != node.kind) {
                report.add("SKL005", spec_subject(spec, "node " + node.name),
                           "capability kind differs from the catalogue entry");
            }
        }
    }

    return report;
}

LintReport lint_binding(const skills::AlarmBinding& binding,
                        const skills::CapabilityRegistry& catalogue) {
    LintReport report;
    const std::string subject = "alarm binding " + binding.anomaly_kind;
    if (binding.degraded_value < 0.0 || binding.degraded_value > 1.0) {
        report.add("SKL006", subject,
                   format("degraded value %.3f outside [0,1]",
                          binding.degraded_value));
    }
    if (binding.capability.empty()) {
        return report; // resolved from the anomaly source at match time
    }
    if (!catalogue.has_capability(binding.capability)) {
        report.add("SKL006", subject,
                   "names unknown capability '" + binding.capability + "'");
    } else if (!catalogue.capability(binding.capability)
                    .has_quality(binding.quality)) {
        report.add("SKL006", subject,
                   "capability '" + binding.capability + "' has no " +
                       std::string(to_string(binding.quality)) + " quality");
    }
    return report;
}

LintReport lint_registry(const skills::CapabilityRegistry& registry) {
    LintReport report;
    std::set<std::string> used;
    for (const std::string& name : registry.spec_names()) {
        const skills::SkillGraphSpec& spec = *registry.spec(name);
        report.merge(lint_spec(spec, &registry));
        for (const auto& node : spec.nodes()) {
            used.insert(node.name);
        }
    }
    for (const auto& binding : registry.alarm_bindings()) {
        report.merge(lint_binding(binding, registry));
        if (!binding.capability.empty()) {
            used.insert(binding.capability);
        }
    }
    // SKL007: dead capabilities. Bindings with an empty capability resolve
    // dynamically and do not keep a capability alive.
    for (const std::string& name : registry.capability_names()) {
        if (!used.contains(name)) {
            report.add("SKL007", "capability " + name,
                       "no spec node or alarm binding references it");
        }
    }
    return report;
}

} // namespace sa::lint
