#include "learn/offline.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace sa::learn {

std::vector<std::string>
resolve_trace_metrics(const Trace& trace, const LearnedMonitorConfig& config) {
    if (!config.metrics.empty()) {
        return config.metrics;
    }
    std::vector<std::string> names;
    if (config.auto_metrics) {
        for (const auto& sample : trace.samples) {
            if (std::find(names.begin(), names.end(), sample.name) == names.end()) {
                names.push_back(sample.name);
            }
        }
    }
    return names;
}

OfflineResult run_offline(const Trace& trace, const LearnedMonitorConfig& config) {
    const std::vector<std::string> names = resolve_trace_metrics(trace, config);
    SA_REQUIRE(!names.empty(),
               "no tracked metrics: empty trace or auto_metrics disabled "
               "(lint rule LRN001)");

    StateModel state(config.state, config.seed);
    std::vector<MetricModel> models(names.size(), MetricModel(config.metric));
    std::vector<bool> in_round(names.size(), false);
    std::vector<int> bands(names.size(), 0);

    OfflineResult result;
    bool have_first = false;
    std::int64_t first_ns = 0;
    bool alarmed = false;

    // Mirrors AnomalyModelMonitor::on_metric()/evaluate(): a repeated metric
    // closes the round, scoring happens first, alarms gate on warm-up.
    auto evaluate = [&](std::int64_t at_ns) {
        ++result.evaluations;
        for (std::size_t i = 0; i < models.size(); ++i) {
            bands[i] = state.band(models[i].drift_z());
        }
        const StateModel::Observation obs = state.observe(bands);
        result.max_score = std::max(result.max_score, obs.score);
        if (at_ns - first_ns < config.warmup.count_ns()) {
            return;
        }
        if (!alarmed && obs.score >= config.score_threshold) {
            alarmed = true;
            result.events.push_back(
                ScoredEvent{at_ns, obs.state, obs.score, true});
        } else if (alarmed && obs.score <= LearnedMonitorConfig::kRecoverRatio *
                                               config.score_threshold) {
            alarmed = false;
            result.events.push_back(
                ScoredEvent{at_ns, obs.state, obs.score, false});
        }
    };

    for (const auto& sample : trace.samples) {
        const auto it = std::find(names.begin(), names.end(), sample.name);
        if (it == names.end()) {
            continue;
        }
        const auto index = static_cast<std::size_t>(it - names.begin());
        if (!have_first) {
            have_first = true;
            first_ns = sample.at_ns;
        }
        if (in_round[index]) {
            evaluate(sample.at_ns);
            std::fill(in_round.begin(), in_round.end(), false);
        }
        models[index].update(sample.value);
        in_round[index] = true;
    }

    result.state_count = state.state_count();
    result.metrics.reserve(names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        result.metrics.push_back(MetricBaseline{
            names[i], models[i].count(), models[i].warmed_up(),
            models[i].mean(), models[i].sigma(), models[i].ewma(),
            models[i].drift_z()});
    }
    return result;
}

} // namespace sa::learn
