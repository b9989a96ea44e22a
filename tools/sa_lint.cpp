// sa_lint: file-level front end of the sa::lint analyzer. Checks skill-graph
// spec files ("graph <name> { ... }") and contract files ("component <name>
// { ... }") standalone — before any simulator, MCC or CI run consumes them —
// and emits the human report on stdout plus an optional machine-readable
// JSON report for CI artifacts.
//
//   usage: sa_lint [options] <file>...
//     --json <path>        write the JSON report (schema version 1)
//     --builtin-catalogue  check spec nodes against the builtin capability
//                          catalogue (enables SKL005)
//     --check-builtin      also lint the builtin registry itself
//     --rules              print the rule catalogue and exit
//
//   exit status: 0 = no errors (warnings/infos allowed)
//                1 = at least one Error-severity finding
//                2 = usage or I/O error

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "lint/model_rules.hpp"
#include "lint/skills_rules.hpp"
#include "model/contract_parser.hpp"
#include "skills/capability_registry.hpp"
#include "skills/skill_graph_spec.hpp"
#include "util/lexer.hpp"
#include "util/string_util.hpp"

namespace {

/// Re-add `from`'s findings into `into` with the file name prefixed to the
/// subject, so a multi-file report stays attributable.
void merge_with_file(sa::lint::LintReport& into, const sa::lint::LintReport& from,
                     const std::string& file) {
    for (const auto& finding : from.findings()) {
        into.add(finding.rule, file + ": " + finding.subject, finding.message);
    }
}

void lint_file(const std::string& path, bool use_catalogue,
               sa::lint::LintReport& report) {
    std::ifstream in(path);
    if (!in) {
        report.add("TXT001", path, "cannot open file");
        return;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();

    // The first token names the grammar: "graph" introduces a spec,
    // "component" a contract file.
    try {
        const std::string_view head = sa::util::Lexer(text).peek().text;
        if (head == "graph") {
            const auto spec = sa::skills::SkillGraphSpec::parse(text);
            const auto* catalogue =
                use_catalogue ? &sa::skills::CapabilityRegistry::builtin()
                              : nullptr;
            merge_with_file(report, sa::lint::lint_spec(spec, catalogue), path);
        } else if (head == "component") {
            const auto contracts = sa::model::ContractParser{}.parse(text);
            merge_with_file(report, sa::lint::lint_contracts(contracts), path);
        } else {
            report.add("TXT001", path,
                       "unrecognized input: expected a 'graph { ... }' spec or a "
                       "'component { ... }' contract file");
        }
    } catch (const sa::util::ParseError& error) {
        report.add("TXT001", path,
                   sa::format("line %d: %s", error.line(), error.what()));
    }
}

void print_rules() {
    for (const auto& rule : sa::lint::rule_catalogue()) {
        std::cout << sa::format("%s  %-7s  %-8s  %s\n", rule.id,
                                sa::lint::to_string(rule.severity),
                                sa::lint::to_string(rule.layer), rule.summary);
    }
}

int usage() {
    std::cerr << "usage: sa_lint [--json <path>] [--builtin-catalogue] "
                 "[--check-builtin] [--rules] <file>...\n";
    return 2;
}

} // namespace

int main(int argc, char** argv) {
    std::vector<std::string> files;
    std::string json_path;
    bool use_catalogue = false;
    bool check_builtin = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            if (++i >= argc) {
                return usage();
            }
            json_path = argv[i];
        } else if (arg == "--builtin-catalogue") {
            use_catalogue = true;
        } else if (arg == "--check-builtin") {
            check_builtin = true;
        } else if (arg == "--rules") {
            print_rules();
            return 0;
        } else if (!arg.empty() && arg.front() == '-') {
            return usage();
        } else {
            files.push_back(arg);
        }
    }
    if (files.empty() && !check_builtin) {
        return usage();
    }

    sa::lint::LintReport report;
    if (check_builtin) {
        merge_with_file(
            report,
            sa::lint::lint_registry(sa::skills::CapabilityRegistry::builtin()),
            "(builtin registry)");
    }
    for (const std::string& file : files) {
        lint_file(file, use_catalogue, report);
    }

    std::cout << report.str() << '\n';
    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out) {
            std::cerr << "sa_lint: cannot write " << json_path << '\n';
            return 2;
        }
        out << report.json() << '\n';
    }
    return report.ok() ? 0 : 1;
}
