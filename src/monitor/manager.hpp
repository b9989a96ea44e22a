#pragma once
// MonitorManager: the application/platform monitor block of Fig. 1. It owns
// monitors, funnels their anomalies into one stream (consumed by the
// cross-layer coordinator), hands every ingested metric sample to the
// subscribers of its metric_ingested() tap (learned monitors, trace
// recorders), and accounts for the monitoring overhead itself by running its
// checks as real RTE tasks when asked to (MON-OVH experiment).
//
// What it keeps: the monitors, the interned metric names and the anomaly
// count. It keeps no anomaly history and no metric values; a consumer that
// needs either subscribes to anomalies() or metric_ingested().

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "monitor/monitor.hpp"
#include "rte/ecu.hpp"
#include "util/string_util.hpp"

namespace sa::monitor {

/// Dense handle for an interned metric name. Producers that emit the same
/// metric repeatedly (periodic pumps, substrate taps) intern the name once
/// via MonitorManager::metric_id() and ingest by id afterwards: no hashing,
/// no string compare, no allocation.
using MetricId = std::uint32_t;

class MonitorManager {
public:
    explicit MonitorManager(sim::Simulator& simulator) : simulator_(simulator) {}

    MonitorManager(const MonitorManager&) = delete;
    MonitorManager& operator=(const MonitorManager&) = delete;

    /// Construct and register a monitor; the manager owns it and re-emits
    /// its anomalies.
    template <typename T, typename... Args>
    T& add(Args&&... args) {
        auto mon = std::make_unique<T>(simulator_, std::forward<Args>(args)...);
        T& ref = *mon;
        hook(ref);
        monitors_.push_back(std::move(mon));
        return ref;
    }

    /// All anomalies from all registered monitors.
    sim::Signal<const Anomaly&>& anomalies() noexcept { return anomalies_; }

    /// Intern a metric name, registering it on first sight. The returned id
    /// stays valid for the manager's lifetime.
    MetricId metric_id(std::string_view name);
    /// The name `id` was interned under.
    [[nodiscard]] const std::string& metric_name(MetricId id) const;
    /// Registered metric names, sorted.
    [[nodiscard]] std::vector<std::string> metric_names() const;

    /// Ingest one sample of an interned metric (monitors and substrates
    /// push): no hashing, no string work, no allocation.
    void ingest(MetricId id, double value, sim::Time at);

    /// Observer tap on the ingest stream: fired once per ingest() with the
    /// metric's id, value and time, in subscription order. A subscriber may
    /// ingest further metrics from inside the tap: the nested sample reaches
    /// every subscriber before the outer one moves on to its next.
    sim::Signal<MetricId, double, sim::Time>& metric_ingested() noexcept {
        return metric_ingested_;
    }

    [[nodiscard]] std::uint64_t total_anomalies() const noexcept { return total_; }

    /// Model the monitoring cost: run a periodic no-op task with the given
    /// WCET on the ECU, so monitors interfere measurably (but little) with
    /// application tasks. Returns the created task id.
    rte::TaskId attach_overhead_task(rte::Ecu& ecu, sim::Duration period,
                                     sim::Duration wcet, int priority);

    [[nodiscard]] std::size_t monitor_count() const noexcept { return monitors_.size(); }

    /// Sum of Monitor::checks() over all registered monitors (MON-OVH
    /// coverage figure).
    [[nodiscard]] std::uint64_t total_checks() const noexcept;

private:
    void hook(Monitor& monitor);

    template <typename V>
    using MetricMap = std::unordered_map<std::string, V, StringHash, std::equal_to<>>;

    sim::Simulator& simulator_;
    // The signals are declared before monitors_ so they outlive the owned
    // monitors during destruction: a monitor's destructor may unsubscribe
    // its tap (AnomalyModelMonitor does).
    sim::Signal<const Anomaly&> anomalies_;
    sim::Signal<MetricId, double, sim::Time> metric_ingested_;
    std::vector<std::unique_ptr<Monitor>> monitors_;
    // Interned names: the map owns them (unordered_map nodes are
    // address-stable, so metric_names_by_id_ points at its keys) and maps
    // them to dense ids.
    MetricMap<MetricId> metric_ids_;
    std::vector<const std::string*> metric_names_by_id_;
    std::uint64_t total_ = 0;
};

} // namespace sa::monitor
