#include "monitor/manager.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace sa::monitor {

void MonitorManager::hook(Monitor& monitor) {
    monitor.anomaly().subscribe([this](const Anomaly& a) {
        ++total_;
        anomalies_.emit(a);
    });
}

MetricId MonitorManager::metric_id(std::string_view name) {
    const auto it = metric_ids_.find(name);
    if (it != metric_ids_.end()) {
        return it->second;
    }
    const auto id = static_cast<MetricId>(metric_names_by_id_.size());
    const auto inserted = metric_ids_.emplace(std::string(name), id).first;
    metric_names_by_id_.push_back(&inserted->first);
    return id;
}

const std::string& MonitorManager::metric_name(MetricId id) const {
    SA_REQUIRE(id < metric_names_by_id_.size(), "unknown metric id");
    return *metric_names_by_id_[id];
}

void MonitorManager::ingest(MetricId id, double value, sim::Time at) {
    SA_REQUIRE(id < metric_names_by_id_.size(), "unknown metric id");
    metric_ingested_.emit(id, value, at);
}

std::vector<std::string> MonitorManager::metric_names() const {
    std::vector<std::string> names;
    names.reserve(metric_names_by_id_.size());
    for (const std::string* name : metric_names_by_id_) {
        names.push_back(*name);
    }
    std::sort(names.begin(), names.end());
    return names;
}

std::uint64_t MonitorManager::total_checks() const noexcept {
    std::uint64_t n = 0;
    for (const auto& monitor : monitors_) {
        n += monitor->checks();
    }
    return n;
}

rte::TaskId MonitorManager::attach_overhead_task(rte::Ecu& ecu, sim::Duration period,
                                                 sim::Duration wcet, int priority) {
    rte::RtTaskConfig task;
    task.name = "monitor.overhead." + ecu.name();
    task.priority = priority;
    task.period = period;
    task.wcet = wcet;
    task.randomize_exec = false;
    return ecu.scheduler().add_task(task);
}

} // namespace sa::monitor
