#include "model/timing_viewpoint.hpp"

#include "util/string_util.hpp"

namespace sa::model {

analysis::CpuResourceModel TimingViewpoint::cpu_model(const SystemModel& model,
                                                      const EcuDescriptor& ecu,
                                                      double speed_override) {
    analysis::CpuResourceModel cpu;
    cpu.name = ecu.name;
    cpu.speed_factor = speed_override > 0.0 ? speed_override : ecu.speed_factor;
    for (const auto& c : model.functions.contracts()) {
        if (model.mapping.ecu_of(c.component) != ecu.name) {
            continue;
        }
        for (const auto& t : c.tasks) {
            analysis::TaskModel task;
            const std::string qualified = c.component + "." + t.name;
            task.name = qualified;
            task.wcet = t.wcet;
            task.bcet = t.bcet;
            task.activation = analysis::EventModel::periodic(t.period);
            task.deadline = t.deadline;
            auto prio = model.mapping.task_priority.find(qualified);
            task.priority = prio != model.mapping.task_priority.end() ? prio->second : 1000;
            cpu.tasks.push_back(std::move(task));
        }
    }
    return cpu;
}

analysis::CanBusModel TimingViewpoint::bus_model(const SystemModel& model,
                                                 const BusDescriptor& bus) {
    analysis::CanBusModel out;
    out.name = bus.name;
    out.bitrate_bps = bus.bitrate_bps;
    for (const auto& c : model.functions.contracts()) {
        for (const auto& m : c.messages) {
            auto target = model.mapping.message_to_bus.find(m.name);
            if (target == model.mapping.message_to_bus.end() || target->second != bus.name) {
                continue;
            }
            analysis::CanMessageModel msg;
            msg.name = m.name;
            auto id = model.mapping.message_id.find(m.name);
            msg.can_id = id != model.mapping.message_id.end() ? id->second : m.can_id;
            msg.payload_bytes = m.payload_bytes;
            msg.activation = analysis::EventModel::periodic(m.period);
            msg.deadline = m.deadline;
            out.messages.push_back(std::move(msg));
        }
    }
    return out;
}

ViewpointReport TimingViewpoint::check(const SystemModel& model) {
    ViewpointReport report;
    report.viewpoint = name();

    analysis::CpuWcrtAnalysis cpu_analysis;
    for (const auto& ecu : model.platform.ecus) {
        const auto cpu = cpu_model(model, ecu);
        if (cpu.tasks.empty()) {
            continue;
        }
        if (cpu.utilization() > ecu.max_utilization) {
            report.issues.push_back(ViewpointIssue{
                IssueSeverity::Error, "timing.overutilized", ecu.name,
                format("utilization %.2f exceeds cap %.2f", cpu.utilization(),
                       ecu.max_utilization)});
        }
        const auto result = cpu_analysis.analyze(cpu);
        for (const auto& e : result.entities) {
            if (!e.schedulable) {
                report.issues.push_back(ViewpointIssue{
                    IssueSeverity::Error, "timing.unschedulable", e.name,
                    format("WCRT %s > deadline %s on %s", e.wcrt.str().c_str(),
                           e.deadline.str().c_str(), ecu.name.c_str())});
            }
        }
    }

    analysis::CanWcrtAnalysis can_analysis;
    for (const auto& bus : model.platform.buses) {
        const auto bus_mdl = bus_model(model, bus);
        if (bus_mdl.messages.empty()) {
            continue;
        }
        const double util = analysis::CanWcrtAnalysis::utilization(bus_mdl);
        if (util > bus.max_utilization) {
            report.issues.push_back(ViewpointIssue{
                IssueSeverity::Error, "timing.bus_overutilized", bus.name,
                format("bus utilization %.2f exceeds cap %.2f", util, bus.max_utilization)});
        }
        const auto result = can_analysis.analyze(bus_mdl);
        for (const auto& e : result.entities) {
            if (!e.schedulable) {
                report.issues.push_back(ViewpointIssue{
                    IssueSeverity::Error, "timing.msg_unschedulable", e.name,
                    format("WCRT %s > deadline %s on %s", e.wcrt.str().c_str(),
                           e.deadline.str().c_str(), bus.name.c_str())});
            }
        }
    }

    return report;
}

} // namespace sa::model
