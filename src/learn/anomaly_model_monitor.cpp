#include "learn/anomaly_model_monitor.hpp"

#include <algorithm>

#include "monitor/anomaly_kinds.hpp"
#include "util/assert.hpp"
#include "util/string_util.hpp"

namespace sa::learn {

AnomalyModelMonitor::AnomalyModelMonitor(sim::Simulator& simulator,
                                         monitor::MonitorManager& manager,
                                         LearnedMonitorConfig config)
    : Monitor(simulator, "learned:model", monitor::Domain::Function),
      manager_(manager),
      config_(std::move(config)),
      state_(config_.state, config_.seed) {
    SA_REQUIRE(!config_.metrics.empty(),
               "learned monitor needs at least one tracked metric "
               "(lint rule LRN001)");
    SA_REQUIRE(config_.score_threshold > 0.0, "score threshold must be positive");
    models_.assign(config_.metrics.size(), MetricModel(config_.metric));
    in_round_.assign(config_.metrics.size(), false);
    bands_.assign(config_.metrics.size(), 0);
    // Map the tracked names to their ids once; the first of repeated names
    // wins.
    for (std::size_t i = 0; i < config_.metrics.size(); ++i) {
        const monitor::MetricId id = manager_.metric_id(config_.metrics[i]);
        if (id >= index_by_id_.size()) {
            index_by_id_.resize(id + 1, kUntracked);
        }
        if (index_by_id_[id] == kUntracked) {
            index_by_id_[id] = i;
        }
    }
    tap_id_ = manager_.metric_ingested().subscribe(
        [this](monitor::MetricId id, double value, sim::Time at) {
            on_metric(id, value, at);
        });
}

AnomalyModelMonitor::~AnomalyModelMonitor() {
    manager_.metric_ingested().unsubscribe(tap_id_);
}

bool AnomalyModelMonitor::warmed_up() const noexcept {
    return first_sample_.has_value() &&
           simulator_.now() - *first_sample_ >= config_.warmup;
}

const MetricModel* AnomalyModelMonitor::metric_model(std::string_view name) const {
    for (std::size_t i = 0; i < config_.metrics.size(); ++i) {
        if (config_.metrics[i] == name) {
            return &models_[i];
        }
    }
    return nullptr;
}

void AnomalyModelMonitor::on_metric(monitor::MetricId id, double value, sim::Time at) {
    if (id >= index_by_id_.size() || index_by_id_[id] == kUntracked) {
        return;
    }
    const std::size_t index = index_by_id_[id];
    if (!first_sample_.has_value()) {
        first_sample_ = at;
    }
    // A repeated metric means the ingest stream entered its next round:
    // score the completed joint observation first. Purely stream-driven, so
    // any ingest interleaving (pump order, extra producers) stays
    // deterministic.
    if (in_round_[index]) {
        evaluate(at);
        std::fill(in_round_.begin(), in_round_.end(), false);
    }
    models_[index].update(value);
    in_round_[index] = true;
}

void AnomalyModelMonitor::evaluate(sim::Time at) {
    note_check();
    ++evals_;
    for (std::size_t i = 0; i < models_.size(); ++i) {
        bands_[i] = state_.band(models_[i].drift_z());
    }
    const StateModel::Observation obs = state_.observe(bands_);
    score_ = obs.score;

    // State/transition statistics learn from the whole stream, but alarms
    // only fire once the sim-time warm-up elapsed — the early shuffle while
    // clusters form is training data, not evidence.
    if (at - *first_sample_ < config_.warmup) {
        return;
    }
    if (!alarmed_ && score_ >= config_.score_threshold) {
        alarmed_ = true;
        const double magnitude = score_ / config_.score_threshold;
        const auto severity = magnitude >= 1.5 ? monitor::Severity::Critical
                                               : monitor::Severity::Warning;
        raise(severity, name(), monitor::kinds::kLearnedAbnormality,
              format("state %zu surprise %.2f bits (threshold %.2f, %zu states)",
                     obs.state, score_, config_.score_threshold,
                     state_.state_count()),
              magnitude);
    } else if (alarmed_ &&
               score_ <= LearnedMonitorConfig::kRecoverRatio * config_.score_threshold) {
        alarmed_ = false;
        raise(monitor::Severity::Info, name(), monitor::kinds::kLearnedRecovered,
              format("surprise %.2f bits back under %.2f", score_,
                     LearnedMonitorConfig::kRecoverRatio * config_.score_threshold),
              0.0);
    }
}

} // namespace sa::learn
