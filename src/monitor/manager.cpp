#include "monitor/manager.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace sa::monitor {

void MonitorManager::hook(Monitor& monitor) {
    monitor.anomaly().subscribe([this](const Anomaly& a) {
        ++total_;
        if (history_.size() == kHistoryCapacity) {
            history_.pop_front();
        }
        history_.push_back(a);
        anomalies_.emit(a);
    });
}

MetricId MonitorManager::metric_id(std::string_view name) {
    const auto it = metric_ids_.find(name);
    if (it != metric_ids_.end()) {
        return it->second;
    }
    const auto id = static_cast<MetricId>(metric_stats_.size());
    const auto inserted = metric_ids_.emplace(std::string(name), id).first;
    metric_names_by_id_.push_back(&inserted->first);
    metric_stats_.emplace_back();
    metric_last_.push_back(0.0);
    return id;
}

void MonitorManager::ingest(MetricId id, double value, sim::Time at) {
    SA_REQUIRE(id < metric_stats_.size(), "unknown metric id");
    metric_stats_[id].add(value);
    metric_last_[id] = value;
    // Notify the tap through a scratch Metric whose name string keeps its
    // capacity across ingests. One scratch per re-entrancy depth; the depth
    // counter is restored even if a subscriber throws.
    if (emit_scratch_.size() == emit_depth_) {
        emit_scratch_.emplace_back();
    }
    Metric& scratch = emit_scratch_[emit_depth_];
    scratch.name.assign(*metric_names_by_id_[id]);
    scratch.value = value;
    scratch.at = at;
    ++emit_depth_;
    struct DepthGuard {
        std::size_t& depth;
        ~DepthGuard() { --depth; }
    } guard{emit_depth_};
    metric_ingested_.emit(scratch);
}

void MonitorManager::ingest(const Metric& metric) {
    const MetricId id = metric_id(metric.name);
    metric_stats_[id].add(metric.value);
    metric_last_[id] = metric.value;
    // Emit the caller's Metric directly — no copy into scratch needed.
    metric_ingested_.emit(metric);
}

double MonitorManager::last_value(std::string_view name) const {
    const auto it = metric_ids_.find(name);
    return it == metric_ids_.end() ? 0.0 : metric_last_[it->second];
}

const RunningStats* MonitorManager::stats(std::string_view name) const {
    const auto it = metric_ids_.find(name);
    return it == metric_ids_.end() ? nullptr : &metric_stats_[it->second];
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

std::size_t MonitorManager::count_kind(const std::string& kind) const {
    std::size_t n = 0;
    for (const auto& a : history_) {
        if (a.kind == kind) {
            ++n;
        }
    }
    return n;
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
