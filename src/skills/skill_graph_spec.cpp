#include "skills/skill_graph_spec.hpp"

#include <charconv>
#include <mutex>

#include "skills/ability_graph.hpp"
#include "util/assert.hpp"

namespace sa::skills {

const char* to_string(SkillNodeKind kind) noexcept {
    switch (kind) {
    case SkillNodeKind::Skill: return "skill";
    case SkillNodeKind::DataSource: return "source";
    case SkillNodeKind::DataSink: return "sink";
    }
    return "?";
}

bool aggregation_from_string(const std::string& text, Aggregation& out) {
    if (text == "min") {
        out = Aggregation::Min;
    } else if (text == "product") {
        out = Aggregation::Product;
    } else if (text == "weighted_mean") {
        out = Aggregation::WeightedMean;
    } else {
        return false;
    }
    return true;
}

// --- builder ----------------------------------------------------------------------

SkillGraphSpec::SkillGraphSpec(std::string name) : name_(std::move(name)) {
    SA_REQUIRE(util::is_identifier(name_),
               "spec name must be an identifier ([A-Za-z_][A-Za-z0-9_]*): '" +
                   name_ + "'");
}

SkillGraphSpec& SkillGraphSpec::add_node(NodeDecl decl) {
    SA_REQUIRE(util::is_identifier(decl.name),
               "spec node name must be an identifier ([A-Za-z_][A-Za-z0-9_]*): '" +
                   decl.name + "'");
    SA_REQUIRE(find_node(decl.name) == nullptr,
               "duplicate node in spec '" + name_ + "': " + decl.name);
    // Descriptions must survive str() -> parse(): the text form quotes them
    // with no escape sequences, so quotes and newlines are unrepresentable.
    SA_REQUIRE(decl.description.find('"') == std::string::npos &&
                   decl.description.find('\n') == std::string::npos,
               "node description must not contain '\"' or newlines: " + decl.name);
    nodes_.push_back(std::move(decl));
    return changed();
}

SkillGraphSpec& SkillGraphSpec::skill(std::string name, std::string description) {
    return add_node(NodeDecl{std::move(name), SkillNodeKind::Skill,
                             std::move(description)});
}

SkillGraphSpec& SkillGraphSpec::source(std::string name, std::string description) {
    return add_node(NodeDecl{std::move(name), SkillNodeKind::DataSource,
                             std::move(description)});
}

SkillGraphSpec& SkillGraphSpec::sink(std::string name, std::string description) {
    return add_node(NodeDecl{std::move(name), SkillNodeKind::DataSink,
                             std::move(description)});
}

SkillGraphSpec& SkillGraphSpec::depends(const std::string& parent,
                                        const std::vector<std::string>& children) {
    SA_REQUIRE(!children.empty(), "dependency declaration needs at least one child");
    for (const auto& child : children) {
        edges_.push_back(EdgeDecl{parent, child});
    }
    return changed();
}

SkillGraphSpec& SkillGraphSpec::aggregate(std::string skill, Aggregation aggregation) {
    aggregates_.push_back(AggregateDecl{std::move(skill), aggregation});
    return changed();
}

SkillGraphSpec& SkillGraphSpec::weight(std::string skill, std::string child,
                                       double weight) {
    SA_REQUIRE(weight > 0.0, "weights must be positive");
    weights_.push_back(WeightDecl{std::move(skill), std::move(child), weight});
    return changed();
}

SkillGraphSpec& SkillGraphSpec::root(std::string skill) {
    root_ = std::move(skill);
    return changed();
}

SkillGraphSpec& SkillGraphSpec::changed() noexcept {
    compiled_.graph.reset();
    return *this;
}

std::shared_ptr<const CompiledGraph> SkillGraphSpec::compiled() const {
    static std::mutex mutex; // guards every spec's compiled_
    const std::lock_guard lock(mutex);
    if (compiled_.graph == nullptr) { // a spec that does not compile keeps nothing
        compiled_.graph = std::make_shared<const CompiledGraph>(*this);
    }
    return compiled_.graph;
}

// --- introspection ----------------------------------------------------------------

const SkillGraphSpec::NodeDecl* SkillGraphSpec::find_node(const std::string& name) const {
    for (const auto& node : nodes_) {
        if (node.name == name) {
            return &node;
        }
    }
    return nullptr;
}

bool SkillGraphSpec::declares_node(const std::string& name) const {
    return find_node(name) != nullptr;
}

std::vector<std::string> SkillGraphSpec::node_names() const {
    std::vector<std::string> out;
    out.reserve(nodes_.size());
    for (const auto& node : nodes_) {
        out.push_back(node.name);
    }
    return out;
}

SkillNodeKind SkillGraphSpec::node_kind(const std::string& name) const {
    const NodeDecl* node = find_node(name);
    SA_REQUIRE(node != nullptr, "spec '" + name_ + "' declares no node: " + name);
    return node->kind;
}

std::string SkillGraphSpec::str() const {
    std::string out = "graph " + name_ + " {\n";
    if (!root_.empty()) {
        out += "  root " + root_ + ";\n";
    }
    for (const auto& node : nodes_) {
        out += "  " + std::string(to_string(node.kind)) + " " + node.name;
        if (!node.description.empty()) {
            out += " \"" + node.description + "\"";
        }
        out += ";\n";
    }
    // Edges grouped by parent in declaration order (one fan-out per run).
    for (std::size_t i = 0; i < edges_.size();) {
        out += "  " + edges_[i].parent + " ->";
        const std::string& parent = edges_[i].parent;
        while (i < edges_.size() && edges_[i].parent == parent) {
            out += " " + edges_[i].child;
            ++i;
        }
        out += ";\n";
    }
    for (const auto& agg : aggregates_) {
        out += "  aggregate " + agg.skill + " " +
               std::string(to_string(agg.aggregation)) + ";\n";
    }
    for (const auto& w : weights_) {
        // Shortest fixed notation that reads back to the same double: the
        // grammar's numbers have no exponent.
        char number[400]; // fixed notation of any double fits
        char* end = std::to_chars(number, number + sizeof number, w.weight,
                                  std::chars_format::fixed)
                        .ptr;
        out += "  weight " + w.skill + " " + w.child + " " +
               std::string(number, end) + ";\n";
    }
    out += "}\n";
    return out;
}

// --- parser -----------------------------------------------------------------------

namespace {

std::string optional_description(util::Lexer& lex) {
    return lex.peek().kind == util::TokKind::String ? lex.take_string("description")
                                                    : std::string();
}

void parse_statement(util::Lexer& lex, SkillGraphSpec& spec) {
    const int line = lex.peek().line;
    const std::string head = lex.take_ident("statement");
    auto take_node = [&](const char* what) {
        std::string name = lex.take_ident(what);
        if (spec.declares_node(name)) {
            throw util::ParseError(line, "duplicate node '" + name + "'");
        }
        return name;
    };
    if (head == "root") {
        spec.root(lex.take_ident("root skill name"));
    } else if (head == "skill") {
        std::string name = take_node("skill name");
        spec.skill(std::move(name), optional_description(lex));
    } else if (head == "source") {
        std::string name = take_node("source name");
        spec.source(std::move(name), optional_description(lex));
    } else if (head == "sink") {
        std::string name = take_node("sink name");
        spec.sink(std::move(name), optional_description(lex));
    } else if (head == "aggregate") {
        std::string skill = lex.take_ident("skill name");
        const int agg_line = lex.peek().line;
        const std::string agg = lex.take_ident("aggregation name");
        Aggregation aggregation{};
        if (!aggregation_from_string(agg, aggregation)) {
            throw util::ParseError(agg_line, "unknown aggregation '" + agg +
                                                 "' (min, product, weighted_mean)");
        }
        spec.aggregate(std::move(skill), aggregation);
    } else if (head == "weight") {
        std::string skill = lex.take_ident("skill name");
        std::string child = lex.take_ident("child name");
        const int weight_line = lex.peek().line;
        const double weight = lex.take_real("weight value");
        if (weight <= 0.0) {
            throw util::ParseError(weight_line, "weights must be positive");
        }
        spec.weight(std::move(skill), std::move(child), weight);
    } else if (lex.accept("->")) {
        // `<parent> -> <child> [<child> ...]`
        std::vector<std::string> children{lex.take_ident("child name")};
        while (lex.peek().kind == util::TokKind::Ident) {
            children.push_back(lex.take_ident("child name"));
        }
        spec.depends(head, children);
    } else {
        throw util::ParseError(line, "unknown statement '" + head + "'");
    }
    lex.expect(";");
}

} // namespace

SkillGraphSpec SkillGraphSpec::parse(const std::string& text) {
    util::Lexer lex(text);
    lex.expect("graph");
    SkillGraphSpec spec(lex.take_ident("graph name"));
    lex.expect("{");
    while (!lex.accept("}")) {
        parse_statement(lex, spec);
    }
    if (!lex.at_end()) {
        lex.fail("expected exactly one graph block");
    }
    return spec;
}

} // namespace sa::skills
