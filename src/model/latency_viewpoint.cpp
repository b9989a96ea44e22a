#include "model/latency_viewpoint.hpp"

#include "util/string_util.hpp"

namespace sa::model {

ViewpointReport LatencyViewpoint::check(const SystemModel& model) {
    ViewpointReport report;
    report.viewpoint = name();

    // Does any contract carry a latency requirement at all?
    bool any = false;
    for (const auto& c : model.functions.contracts()) {
        any = any || c.max_e2e_latency.has_value();
    }
    if (!any) {
        return report;
    }

    // Per-resource analyses (shared across all chains).
    analysis::ChainLatencyAnalysis chains;
    analysis::CpuWcrtAnalysis cpu_analysis;
    analysis::CanWcrtAnalysis can_analysis;
    for (const auto& ecu : model.platform.ecus) {
        const auto cpu = TimingViewpoint::cpu_model(model, ecu);
        if (!cpu.tasks.empty()) {
            chains.add_resource_result(cpu_analysis.analyze(cpu));
        }
    }
    for (const auto& bus : model.platform.buses) {
        const auto bus_mdl = TimingViewpoint::bus_model(model, bus);
        if (!bus_mdl.messages.empty()) {
            chains.add_resource_result(can_analysis.analyze(bus_mdl));
        }
    }

    for (const auto& c : model.functions.contracts()) {
        if (!c.max_e2e_latency.has_value()) {
            continue;
        }
        const std::string ecu = model.mapping.ecu_of(c.component);
        std::vector<analysis::ChainStage> stages;
        std::vector<sim::Duration> sampling;
        for (const auto& t : c.tasks) {
            stages.push_back(analysis::ChainStage{analysis::ChainStage::Kind::CpuTask,
                                                  ecu, c.component + "." + t.name});
            sampling.push_back(sim::Duration::zero());
        }
        for (const auto& m : c.messages) {
            auto bus = model.mapping.message_to_bus.find(m.name);
            stages.push_back(analysis::ChainStage{
                analysis::ChainStage::Kind::CanMessage,
                bus != model.mapping.message_to_bus.end() ? bus->second : std::string{},
                m.name});
            // Asynchronous hand-over into the message: one message period.
            sampling.push_back(m.period);
        }
        if (stages.empty()) {
            report.issues.push_back(ViewpointIssue{
                IssueSeverity::Warning, "latency.empty_chain", c.component,
                "max_e2e_latency declared but the component has no stages"});
            continue;
        }
        const auto result = chains.analyze(c.component + ".producer_chain", stages,
                                           *c.max_e2e_latency, sampling);
        if (!result.complete) {
            report.issues.push_back(ViewpointIssue{
                IssueSeverity::Error, "latency.incomplete", c.component,
                "a chain stage has no analysis result (unmapped task or message)"});
        } else if (!result.satisfied) {
            report.issues.push_back(ViewpointIssue{
                IssueSeverity::Error, "latency.requirement_violated", c.component,
                format("worst case %s exceeds requirement %s",
                       result.worst_case.str().c_str(),
                       result.requirement.str().c_str())});
        }
    }

    return report;
}

} // namespace sa::model
