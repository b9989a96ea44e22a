#pragma once
// Per-metric normality model: Welford running statistics over a configurable
// warm-up window establish the frozen baseline (mean, sigma); afterwards an
// EWMA tracks the current operating level. The drift z-score — how many
// baseline sigmas the EWMA has wandered from the warm-up mean — is the
// per-metric abnormality feature fed into the cross-metric StateModel
// (state_model.hpp). Incremental, O(1) per sample, allocation-free: this is
// monitor-tick hot path (bench/learn_cost.cpp holds it against the 0.57 ms
// monitor-overhead budget).

#include <algorithm>
#include <cstddef>

#include "util/stats.hpp"

namespace sa::learn {

struct MetricModelConfig {
    /// Samples accumulated before the baseline freezes. Until then the
    /// drift z-score reads 0 (no baseline to deviate from).
    std::size_t warmup_samples = 64;
};

class MetricModel {
public:
    /// EWMA smoothing factor: higher follows the stream faster but is
    /// noisier against the frozen baseline.
    static constexpr double kEwmaAlpha = 0.05;
    /// Floor on the frozen sigma — a metric that was perfectly constant
    /// during warm-up must not turn every later wiggle into infinity.
    static constexpr double kMinSigma = 0.01;

    explicit MetricModel(MetricModelConfig config = {}) : config_(config) {}

    void update(double x) noexcept {
        ewma_ = (count_ == 0) ? x : kEwmaAlpha * x +
                                        (1.0 - kEwmaAlpha) * ewma_;
        last_ = x;
        ++count_;
        if (!frozen_) {
            welford_.add(x);
            if (welford_.count() >= config_.warmup_samples) {
                mean_ = welford_.mean();
                sigma_ = std::max(welford_.stddev(), kMinSigma);
                frozen_ = true;
            }
        }
    }

    /// True once the warm-up baseline is frozen.
    [[nodiscard]] bool warmed_up() const noexcept { return frozen_; }
    [[nodiscard]] std::size_t count() const noexcept { return count_; }
    [[nodiscard]] double mean() const noexcept { return mean_; }
    [[nodiscard]] double sigma() const noexcept { return sigma_; }
    [[nodiscard]] double ewma() const noexcept { return ewma_; }
    [[nodiscard]] double last() const noexcept { return last_; }

    /// Slow-drift feature: baseline sigmas between the EWMA level and the
    /// frozen mean. 0 until warmed up.
    [[nodiscard]] double drift_z() const noexcept {
        return frozen_ ? (ewma_ - mean_) / sigma_ : 0.0;
    }
    /// Instantaneous feature: baseline sigmas of the latest raw sample.
    [[nodiscard]] double instant_z() const noexcept {
        return frozen_ ? (last_ - mean_) / sigma_ : 0.0;
    }

private:
    MetricModelConfig config_;
    RunningStats welford_;
    double ewma_ = 0.0;
    double last_ = 0.0;
    double mean_ = 0.0;
    double sigma_ = 1.0;
    std::size_t count_ = 0;
    bool frozen_ = false;
};

} // namespace sa::learn
