#pragma once
// AnomalyModelMonitor: the learned detector as a first-class monitor. It
// subscribes to the MonitorManager's metric_ingested() tap, keeps one
// MetricModel per tracked metric and one cross-metric StateModel, and —
// after a sim-time warm-up — raises standard monitor::Anomaly records (kind
// learned_abnormality, magnitude = score / threshold) whenever the joint
// state becomes surprising. Alarms flow through AlarmBinding /
// DegradationPolicy into the ability graph exactly like every hand-written
// monitor's; nothing downstream knows the threshold was learned.
//
// Evaluation is tap-driven (no own periodic): a scoring round closes when a
// tracked metric repeats, so the anomaly stream is a pure function of the
// ingest stream — identical across 1/2/4 domains by construction.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "learn/metric_model.hpp"
#include "learn/state_model.hpp"
#include "monitor/manager.hpp"
#include "monitor/monitor.hpp"

namespace sa::learn {

struct LearnedMonitorConfig {
    /// Tracked metric names, in band order. Empty + auto_metrics: the
    /// vehicle builder resolves the standard feeds (drive.gap, drive.speed,
    /// sensor.<name>, skill.<root>). Empty + !auto_metrics is a
    /// configuration error (lint rule LRN001).
    std::vector<std::string> metrics;
    bool auto_metrics = true;
    /// Sim time before scoring starts; state statistics learn throughout.
    sim::Duration warmup = sim::Duration::ms(500);
    /// Surprise (bits) at which learned_abnormality is raised...
    double score_threshold = 8.0;
    /// ...and the fraction of it below which learned_recovered follows.
    static constexpr double kRecoverRatio = 0.5;
    MetricModelConfig metric{};
    StateModelConfig state{};
    /// Clustering seed: the state model's tie-break key.
    std::uint64_t seed = 1;
};

class AnomalyModelMonitor : public monitor::Monitor {
public:
    AnomalyModelMonitor(sim::Simulator& simulator,
                        monitor::MonitorManager& manager,
                        LearnedMonitorConfig config);
    ~AnomalyModelMonitor() override;

    [[nodiscard]] const LearnedMonitorConfig& config() const noexcept {
        return config_;
    }
    /// Latest joint-state surprise (bits).
    [[nodiscard]] double score() const noexcept { return score_; }
    [[nodiscard]] bool alarmed() const noexcept { return alarmed_; }
    /// True once the sim-time warm-up has elapsed (scoring active).
    [[nodiscard]] bool warmed_up() const noexcept;
    [[nodiscard]] std::uint64_t evaluations() const noexcept { return evals_; }
    [[nodiscard]] const StateModel& state_model() const noexcept { return state_; }
    /// Per-metric model, nullptr for untracked names.
    [[nodiscard]] const MetricModel* metric_model(std::string_view name) const;

private:
    void on_metric(monitor::MetricId id, double value, sim::Time at);
    void evaluate(sim::Time at);

    monitor::MonitorManager& manager_;
    LearnedMonitorConfig config_;
    static constexpr std::size_t kUntracked = static_cast<std::size_t>(-1);
    /// Tracked-metric index per interned metric id; kUntracked for the rest.
    std::vector<std::size_t> index_by_id_;
    std::vector<MetricModel> models_;
    std::vector<bool> in_round_;  ///< updated since the last evaluation
    std::vector<int> bands_;      ///< scratch, reused every evaluation
    StateModel state_;
    std::optional<sim::Time> first_sample_;
    double score_ = 0.0;
    bool alarmed_ = false;
    std::uint64_t evals_ = 0;
    std::uint64_t tap_id_ = 0;
};

} // namespace sa::learn
