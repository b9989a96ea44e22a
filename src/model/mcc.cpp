#include "model/mcc.hpp"

#include <algorithm>
#include <array>
#include <mutex>

#include "lint/model_rules.hpp"
#include "model/contract_parser.hpp"
#include "model/latency_viewpoint.hpp"
#include "model/safety_viewpoint.hpp"
#include "model/timing_viewpoint.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"
#include "util/string_util.hpp"

namespace sa::model {

namespace {

/// The one line an integration leaves in the log, written for a change the
/// MCC analysed and for a copy of a memoised initial analysis alike.
void log_outcome(const std::string& description, const IntegrationReport& report) {
    if (report.accepted) {
        SA_LOG_INFO << "MCC accepted change '" << description << "'";
    } else {
        SA_LOG_INFO << "MCC rejected change '" << description
                    << "': " << report.rejection_reason;
    }
}

/// One memoised initial analysis under its key.
struct MemoEntry {
    std::string contract_text;
    PlatformModel platform;
    std::optional<InitialIntegration> integration; ///< nullopt: no contract declared
};

struct Memo {
    std::mutex mutex;
    std::vector<MemoEntry> entries; ///< guarded by mutex; never evicted
};

Memo& memo() {
    static Memo instance;
    return instance;
}

} // namespace

const ViewpointReport* IntegrationReport::viewpoint(const std::string& name) const {
    for (const auto& r : viewpoints) {
        if (r.viewpoint == name) {
            return &r;
        }
    }
    return nullptr;
}

Mcc::Mcc(PlatformModel platform)
    : committed_(std::make_shared<const Committed>(Committed{.platform = std::move(platform)})) {
    SA_REQUIRE(!committed_->platform.ecus.empty(),
               "MCC needs a platform with at least one ECU");
}

IntegrationReport Mcc::integrate(const ChangeRequest& change) {
    ++attempts_;
    IntegrationReport report = run_steps(change);
    if (report.accepted) {
        ++accepted_;
    }
    log_outcome(change.description, report);
    return report;
}

IntegrationReport Mcc::run_steps(const ChangeRequest& change) {
    IntegrationReport report;
    const Committed& committed = *committed_;

    // Step 1: candidate function model (platform-independent refinement).
    FunctionModel candidate = committed.functions;
    switch (change.kind) {
    case ChangeRequest::Kind::Add:
    case ChangeRequest::Kind::Update:
        for (const auto& c : change.contracts) {
            candidate.upsert(c);
        }
        report.steps.push_back(IntegrationStep{
            "merge", true,
            format("%zu contract(s) merged, %zu total", change.contracts.size(),
                   candidate.size())});
        break;
    case ChangeRequest::Kind::Remove: {
        if (candidate.find(change.component) == nullptr) {
            report.steps.push_back(IntegrationStep{"merge", false,
                                                   "unknown component " + change.component});
            report.rejection_reason = "unknown component " + change.component;
            return report;
        }
        candidate.remove(change.component);
        report.steps.push_back(
            IntegrationStep{"merge", true, "removed " + change.component});
        break;
    }
    }

    // Step 2: mapping (technical architecture). Existing placements are kept
    // so an accepted change does not disturb running components.
    MappingResult mapped = Mapper{}.map(candidate, committed.platform, committed.mapping);
    {
        IntegrationStep step{"mapping", mapped.feasible, ""};
        if (!mapped.feasible) {
            std::string all;
            for (const auto& e : mapped.errors) {
                all += (all.empty() ? "" : "; ") + e;
            }
            step.detail = all;
        } else {
            step.detail = format("%zu component(s) placed", candidate.size());
        }
        report.steps.push_back(step);
        if (!mapped.feasible) {
            report.rejection_reason = "mapping infeasible: " + report.steps.back().detail;
            return report;
        }
    }
    report.mapping = mapped.mapping;

    // Step 3: structural lint gate. The WCRT viewpoints assume unique
    // priorities per ECU and unique CAN ids per bus; a structurally broken
    // candidate must be rejected *here*, with findings, not silently
    // mis-analyzed two steps later.
    report.lint = lint::lint_system(candidate, committed.platform, &mapped.mapping);
    for (const auto& finding : report.lint.findings()) {
        report.steps.push_back(IntegrationStep{
            "lint:" + finding.rule,
            finding.severity != lint::Severity::Error,
            finding.subject + ": " + finding.message});
    }
    if (!report.lint.ok()) {
        std::string reason = "structural lint failed:";
        for (const auto& finding : report.lint.findings()) {
            if (finding.severity == lint::Severity::Error) {
                reason += " [" + finding.rule + "] " + finding.subject;
            }
        }
        report.rejection_reason = reason;
        return report;
    }

    // Step 4: viewpoint acceptance tests.
    const SystemModel system{candidate, committed.platform, mapped.mapping};
    TimingViewpoint timing;
    LatencyViewpoint latency;
    SafetyViewpoint safety;
    SecurityViewpoint security;
    bool all_passed = true;
    for (Viewpoint* vp : std::array<Viewpoint*, 4>{&timing, &latency, &safety, &security}) {
        ViewpointReport vr = vp->check(system);
        const bool passed = vr.passed();
        report.steps.push_back(IntegrationStep{
            "viewpoint:" + vp->name(), passed,
            format("%zu error(s), %zu warning(s)", vr.count(IssueSeverity::Error),
                   vr.count(IssueSeverity::Warning))});
        all_passed = all_passed && passed;
        report.viewpoints.push_back(std::move(vr));
    }
    if (!all_passed) {
        std::string reason = "acceptance tests failed:";
        for (const auto& vr : report.viewpoints) {
            for (const auto& issue : vr.issues) {
                if (issue.severity == IssueSeverity::Error) {
                    reason += " [" + vr.viewpoint + "] " + issue.code + " (" +
                              issue.subject + ")";
                }
            }
        }
        report.rejection_reason = reason;
        return report;
    }

    // Step 5: commit a new configuration. Copies that shared the old one
    // keep it. The security policy is the one step 4 derived for exactly
    // this model.
    auto next = std::make_shared<Committed>();
    next->platform = committed.platform;
    next->functions = std::move(candidate);
    next->mapping = std::move(mapped.mapping);
    next->dependency_graph =
        build_dependency_graph(next->functions, next->platform, next->mapping);
    next->fmea = FmeaEngine(next->dependency_graph, next->functions).analyze_all();
    next->security_policy = security.policy();
    report.steps.push_back(IntegrationStep{
        "commit", true,
        format("dependency graph: %zu node(s), %zu edge(s)",
               next->dependency_graph.node_count(), next->dependency_graph.edge_count())});
    report.accepted = true;
    committed_ = std::move(next);
    return report;
}

rte::RteConfig Mcc::make_rte_config(const std::map<std::string, TaskBody>& bodies) const {
    const Mapping& mapping = committed_->mapping;
    rte::RteConfig config;
    for (const auto& c : committed_->functions.contracts()) {
        rte::ComponentSpec spec;
        spec.name = c.component;
        spec.ecu = mapping.ecu_of(c.component);
        spec.safety_level = static_cast<int>(c.asil);
        for (const auto& p : c.provides) {
            spec.provides.push_back(p.name);
        }
        for (const auto& r : c.requires_) {
            spec.requires_.push_back(r.name);
        }
        for (const auto& t : c.tasks) {
            rte::RtTaskConfig task;
            const std::string qualified = c.component + "." + t.name;
            task.name = qualified;
            task.period = t.period;
            task.wcet = t.wcet;
            task.bcet = t.bcet;
            task.deadline = t.deadline;
            auto prio = mapping.task_priority.find(qualified);
            task.priority = prio != mapping.task_priority.end() ? prio->second : 1000;
            auto body = bodies.find(qualified);
            if (body != bodies.end()) {
                task.on_complete = body->second;
            }
            spec.tasks.push_back(std::move(task));
        }
        config.components.push_back(std::move(spec));
    }
    config.grants = committed_->security_policy.grants;
    return config;
}

void Mcc::ingest_observed_wcet(const std::string& qualified_task, sim::Duration observed) {
    auto& seen = observed_wcet_[qualified_task];
    seen = std::max(seen, observed);
}

sim::Duration Mcc::observed_wcet(const std::string& qualified_task) const {
    auto it = observed_wcet_.find(qualified_task);
    return it == observed_wcet_.end() ? sim::Duration::zero() : it->second;
}

std::vector<std::string> Mcc::wcet_violations() const {
    std::vector<std::string> out;
    for (const auto& [qualified, observed] : observed_wcet_) {
        const auto dot = qualified.find('.');
        if (dot == std::string::npos) {
            continue;
        }
        const Contract* c = committed_->functions.find(qualified.substr(0, dot));
        if (c == nullptr) {
            continue;
        }
        const TaskSpec* t = c->find_task(qualified.substr(dot + 1));
        if (t != nullptr && observed > t->wcet) {
            out.push_back(qualified);
        }
    }
    return out;
}

bool Mcc::revalidate_with_speed(const std::string& ecu, double speed_factor) const {
    const Committed& committed = *committed_;
    const EcuDescriptor* descriptor = committed.platform.find_ecu(ecu);
    SA_REQUIRE(descriptor != nullptr, "unknown ECU: " + ecu);
    const SystemModel system{committed.functions, committed.platform, committed.mapping};
    const auto cpu = TimingViewpoint::cpu_model(system, *descriptor, speed_factor);
    if (cpu.tasks.empty()) {
        return true;
    }
    analysis::CpuWcrtAnalysis analysis;
    return analysis.analyze(cpu).all_schedulable;
}

std::optional<InitialIntegration> integrate_declared(const PlatformModel& platform,
                                                     const std::string& contract_text,
                                                     const std::string& description) {
    Memo& shared = memo();
    const auto find = [&]() -> const MemoEntry* {
        for (const MemoEntry& entry : shared.entries) {
            if (entry.contract_text == contract_text && entry.platform == platform) {
                return &entry;
            }
        }
        return nullptr;
    };
    std::optional<InitialIntegration> result;
    bool hit = false;
    {
        const std::lock_guard lock(shared.mutex);
        if (const MemoEntry* entry = find()) {
            result = entry->integration;
            hit = true;
        }
    }
    if (hit) {
        if (result.has_value()) {
            log_outcome(description, *result->report);
        }
        return result;
    }

    ChangeRequest change;
    change.description = description;
    change.contracts = ContractParser{}.parse(contract_text);
    if (!change.contracts.empty()) {
        Mcc mcc(platform);
        auto report = std::make_shared<const IntegrationReport>(mcc.integrate(change));
        result.emplace(InitialIntegration{std::move(mcc), std::move(report)});
    }
    // Two threads that miss at once both analyse; the first to get here
    // stores its (equal) result.
    const std::lock_guard lock(shared.mutex);
    if (find() == nullptr) {
        shared.entries.push_back(MemoEntry{contract_text, platform, result});
    }
    return result;
}

} // namespace sa::model
