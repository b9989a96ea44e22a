#include "lint/campaign_rules.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "campaign/runner.hpp"
#include "lint/skills_rules.hpp"
#include "scenario/scenario_builder.hpp"
#include "skills/skill_graph_spec.hpp"
#include "util/string_util.hpp"

namespace sa::lint {
namespace {

/// CMP004: the referenced spec file must exist, parse and pass skills lint.
void check_spec_file(const campaign::CampaignSpec& spec, LintReport& report) {
    const std::string& path = spec.cell().spec_file;
    if (path.empty()) {
        return;
    }
    const std::string subject = "campaign " + spec.cell().campaign + " / spec " + path;
    std::ifstream in(path);
    if (!in) {
        report.add("CMP004", subject, "spec file cannot be read");
        return;
    }
    std::ostringstream text;
    text << in.rdbuf();
    skills::SkillGraphSpec parsed;
    try {
        parsed = skills::SkillGraphSpec::parse(text.str());
    } catch (const util::ParseError& error) {
        report.add("CMP004", subject,
                   format("spec file does not parse: line %d: %s", error.line(),
                          error.what()));
        return;
    }
    const LintReport spec_report =
        lint_spec(parsed, &skills::CapabilityRegistry::builtin());
    if (spec_report.error_count() > 0) {
        report.add("CMP004", subject,
                   format("spec file fails skills lint with %zu error(s)",
                          spec_report.error_count()));
    }
    report.merge(spec_report);
}

/// CMP005: declare ONE representative cell, the matrix's first, and lint
/// its full topology.
void check_representative_cell(const campaign::CampaignSpec& spec,
                               LintReport& report) {
    const campaign::CellConfig cell = spec.first_cell();
    scenario::ScenarioBuilder builder(cell.seed);
    try {
        campaign::declare_cell_scenario(builder, cell);
    } catch (const std::exception&) {
        // Unreadable/unparseable spec files are CMP004's finding; a broken
        // declaration has nothing left to lint.
        return;
    }
    const LintReport cell_report = builder.lint();
    if (cell_report.error_count() > 0) {
        report.add("CMP005", "campaign " + spec.cell().campaign + " / cell " + cell.id(),
                   format("representative cell fails scenario lint with "
                          "%zu error(s)",
                          cell_report.error_count()));
    }
    report.merge(cell_report);
}

} // namespace

LintReport lint_campaign(const campaign::CampaignSpec& spec) {
    LintReport report;
    const std::string subject = "campaign " + spec.cell().campaign;

    if (spec.cell().scenario_template != "platoon") {
        report.add("CMP001", subject,
                   "unknown scenario template '" + spec.cell().scenario_template +
                       "' (known: platoon)");
    }
    if (spec.cell_count() == 0) {
        report.add("CMP002", subject,
                   format("matrix expands to zero cells (seeds %llu..%llu)",
                          static_cast<unsigned long long>(spec.seed_range().lo),
                          static_cast<unsigned long long>(spec.seed_range().hi)));
    } else if (spec.cell_count() > 100000) {
        report.add("CMP003", subject,
                   format("matrix expands to %llu cells; consider a budget "
                          "or a narrower axis",
                          static_cast<unsigned long long>(spec.cell_count())));
    }
    const bool has_probe =
        std::any_of(spec.faults().begin(), spec.faults().end(),
                    campaign::fault_is_harness_probe);
    if (has_probe) {
        report.add("CMP006", subject,
                   "matrix contains harness-probe faults (misuse/crash); "
                   "these exercise the driver, not the modelled system");
    }
    check_spec_file(spec, report);
    if (spec.cell().scenario_template == "platoon" && spec.cell_count() > 0) {
        check_representative_cell(spec, report);
    }
    return report;
}

} // namespace sa::lint
