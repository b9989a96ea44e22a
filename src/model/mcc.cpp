#include "model/mcc.hpp"

#include <algorithm>
#include <array>
#include <mutex>

#include "lint/model_rules.hpp"
#include "model/contract_parser.hpp"
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

Mcc::Mcc(PlatformModel platform) : platform_(std::move(platform)) {
    SA_REQUIRE(!platform_.ecus.empty(), "MCC needs a platform with at least one ECU");
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

    // Step 1: candidate function model (platform-independent refinement).
    FunctionModel candidate = functions_;
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
    MappingResult mapped = mapper_.map(candidate, platform_, mapping_);
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
    report.lint = lint::lint_system(candidate, platform_, &mapped.mapping);
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
    const SystemModel system{candidate, platform_, mapped.mapping};
    bool all_passed = true;
    for (Viewpoint* vp :
         std::array<Viewpoint*, 4>{&timing_, &latency_, &safety_, &security_}) {
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

    // Step 5: commit.
    functions_ = std::move(candidate);
    mapping_ = mapped.mapping;
    rebuild_committed_artifacts();
    report.steps.push_back(IntegrationStep{
        "commit", true,
        format("dependency graph: %zu node(s), %zu edge(s)",
               dependency_graph_.node_count(), dependency_graph_.edge_count())});
    report.accepted = true;
    return report;
}

void Mcc::rebuild_committed_artifacts() {
    dependency_graph_ = build_dependency_graph(functions_, platform_, mapping_);
    FmeaEngine engine(dependency_graph_, functions_);
    fmea_ = engine.analyze_all();
    // Re-derive policy against the committed model.
    const SystemModel system{functions_, platform_, mapping_};
    (void)security_.check(system);
    security_policy_ = security_.policy();
}

rte::RteConfig Mcc::make_rte_config(const std::map<std::string, TaskBody>& bodies) const {
    rte::RteConfig config;
    for (const auto& c : functions_.contracts()) {
        rte::ComponentSpec spec;
        spec.name = c.component;
        spec.ecu = mapping_.ecu_of(c.component);
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
            auto prio = mapping_.task_priority.find(qualified);
            task.priority = prio != mapping_.task_priority.end() ? prio->second : 1000;
            auto body = bodies.find(qualified);
            if (body != bodies.end()) {
                task.on_complete = body->second;
            }
            spec.tasks.push_back(std::move(task));
        }
        config.components.push_back(std::move(spec));
    }
    config.grants = security_policy_.grants;
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
        const Contract* c = functions_.find(qualified.substr(0, dot));
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
    const EcuDescriptor* descriptor = platform_.find_ecu(ecu);
    SA_REQUIRE(descriptor != nullptr, "unknown ECU: " + ecu);
    const SystemModel system{functions_, platform_, mapping_};
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
            log_outcome(description, result->report);
        }
        return result;
    }

    ChangeRequest change;
    change.description = description;
    change.contracts = ContractParser{}.parse(contract_text);
    if (!change.contracts.empty()) {
        result.emplace(InitialIntegration{Mcc(platform), {}});
        result->report = result->mcc.integrate(change);
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
