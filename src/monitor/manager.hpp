#pragma once
// MonitorManager: the application/platform monitor block of Fig. 1. It owns
// monitors, funnels their anomalies into one stream (consumed by the
// cross-layer coordinator), keeps a metric store that the model domain reads
// for optimization ("extract run-time metrics that can be fed back into the
// model domain"), and accounts for the monitoring overhead itself by running
// its checks as real RTE tasks when asked to (MON-OVH experiment).

#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "monitor/monitor.hpp"
#include "rte/ecu.hpp"
#include "util/stats.hpp"
#include "util/string_util.hpp"

namespace sa::monitor {

/// Dense handle for an interned metric name. Producers that emit the same
/// metric repeatedly (periodic pumps, substrate taps) intern the name once
/// via MonitorManager::metric_id() and ingest by id afterwards: steady-state
/// ingestion is then two vector writes — no hashing, no string compare, no
/// allocation.
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

    /// Metric ingestion (monitors and substrates push; the MCC reads).
    /// The id-based overload is the hot path: stats/last-value updates are
    /// direct vector writes and the tap notification reuses a scratch
    /// Metric, so steady-state ingestion never allocates.
    void ingest(MetricId id, double value, sim::Time at);
    /// Name-based convenience path: interns (heterogeneous string_view
    /// lookup, copying the name only on first sight) and forwards.
    void ingest(const Metric& metric);

    /// Observer tap on the ingest stream: fired once per ingest(), after the
    /// stats/last-value stores are updated, in subscription order. Consumers
    /// (TraceRecorder, learned monitors) subscribe here instead of polling
    /// metric_last_.
    sim::Signal<const Metric&>& metric_ingested() noexcept { return metric_ingested_; }

    [[nodiscard]] double last_value(std::string_view name) const;
    [[nodiscard]] const RunningStats* stats(std::string_view name) const;
    /// Registered metric names, sorted.
    [[nodiscard]] std::vector<std::string> metric_names() const;

    /// Retained anomaly history (bounded).
    [[nodiscard]] const std::deque<Anomaly>& history() const noexcept { return history_; }
    [[nodiscard]] std::uint64_t total_anomalies() const noexcept { return total_; }
    [[nodiscard]] std::size_t count_kind(const std::string& kind) const;

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
    sim::Signal<const Metric&> metric_ingested_;
    std::vector<std::unique_ptr<Monitor>> monitors_;
    // Interned metric store: the map owns the names (unordered_map nodes are
    // address-stable, so metric_names_by_id_ points at its keys) and maps
    // them to dense ids; stats and last values are flat vectors indexed by
    // id — the by-name maps of the old design became two cache-line reads.
    MetricMap<MetricId> metric_ids_;
    std::vector<const std::string*> metric_names_by_id_;
    std::vector<RunningStats> metric_stats_;
    std::vector<double> metric_last_;
    // Scratch Metrics for the tap notification of id-based ingest, one per
    // re-entrancy depth (a tap subscriber may ingest metrics of its own). A
    // deque, NOT a vector: growing it for a nested ingest must not move the
    // scratch Metric the outer emit already handed to its subscribers.
    std::deque<Metric> emit_scratch_;
    std::size_t emit_depth_ = 0;
    std::deque<Anomaly> history_;
    std::uint64_t total_ = 0;
    static constexpr std::size_t kHistoryCapacity = 4096;
};

} // namespace sa::monitor
