#include "monitor/sensor_quality_monitor.hpp"

#include "monitor/anomaly_kinds.hpp"

#include <algorithm>
#include <cmath>

#include "util/string_util.hpp"

namespace sa::monitor {

namespace {

constexpr double kDegradedThreshold = 0.7; ///< below => "sensor_degraded" anomaly
constexpr double kFailedThreshold = 0.25;  ///< below => Critical "sensor_failed"
constexpr std::size_t kWindow = 40;        ///< samples considered
constexpr sim::Duration kEvaluationPeriod = sim::Duration::ms(100);
/// Sample period of a healthy sensor (one per 50 ms control step).
constexpr sim::Duration kExpectedPeriod = sim::Duration::ms(50);

} // namespace

SensorQualityMonitor::SensorQualityMonitor(sim::Simulator& simulator,
                                           std::string sensor_name,
                                           SensorQualityConfig config)
    : Monitor(simulator, "sensor:" + sensor_name, Domain::Sensor),
      sensor_(std::move(sensor_name)),
      config_(config) {}

SensorQualityMonitor::~SensorQualityMonitor() { stop(); }

void SensorQualityMonitor::sample(double value, bool valid) {
    samples_.push_back(Sample{simulator_.now(), value, valid});
    while (samples_.size() > kWindow) {
        samples_.pop_front();
    }
}

void SensorQualityMonitor::start() {
    if (started_) {
        return;
    }
    started_ = true;
    started_at_ = simulator_.now();
    // First evaluation after one full period (phase): judging an empty
    // window at t=0 would alarm on a sensor that has not had a chance to
    // produce anything yet.
    periodic_id_ = simulator_.schedule_periodic(
        kEvaluationPeriod, [this] { evaluate(); }, kEvaluationPeriod);
}

void SensorQualityMonitor::stop() {
    if (!started_) {
        return;
    }
    started_ = false;
    simulator_.cancel_periodic(periodic_id_);
    periodic_id_ = 0;
}

void SensorQualityMonitor::evaluate() {
    note_check();

    // Availability: samples seen in the evaluation window vs. expected count.
    const sim::Time now = simulator_.now();
    const sim::Time window_start = now - kEvaluationPeriod;
    std::size_t recent = 0;
    for (const auto& s : samples_) {
        // Closed lower bound: a sample exactly at the window edge counts,
        // otherwise strictly periodic streams alias against the evaluation
        // grid and availability reads 50% on a perfectly healthy sensor.
        if (s.at >= window_start) {
            ++recent;
        }
    }
    const double expected = std::max(
        1.0, kEvaluationPeriod.to_seconds() / kExpectedPeriod.to_seconds());
    availability_ = std::min(1.0, static_cast<double>(recent) / expected);

    // Validity: driver-flagged valid fraction over the retained window.
    if (!samples_.empty()) {
        std::size_t valid = 0;
        for (const auto& s : samples_) {
            valid += s.valid ? 1 : 0;
        }
        validity_ = static_cast<double>(valid) / static_cast<double>(samples_.size());
    }

    // Stability: compare short-term noise (std of first differences) against
    // the nominal sigma. First differences remove the signal trend.
    if (samples_.size() >= 4) {
        double mean = 0.0;
        std::size_t n = 0;
        for (std::size_t i = 1; i < samples_.size(); ++i) {
            mean += samples_[i].value - samples_[i - 1].value;
            ++n;
        }
        mean /= static_cast<double>(n);
        double var = 0.0;
        for (std::size_t i = 1; i < samples_.size(); ++i) {
            const double d = (samples_[i].value - samples_[i - 1].value) - mean;
            var += d * d;
        }
        var /= static_cast<double>(n);
        const double sigma = std::sqrt(var) / std::sqrt(2.0); // diff doubles variance
        const double nominal = std::max(config_.nominal_noise_sigma, 1e-9);
        stability_ = std::clamp(nominal / std::max(sigma, nominal), 0.0, 1.0);
    }

    quality_ = availability_ * validity_ * (0.5 + 0.5 * stability_);
    quality_updated_.emit(quality_);

    if (!failed_alarmed_ && quality_ < kFailedThreshold) {
        failed_alarmed_ = true;
        degraded_alarmed_ = true;
        raise(Severity::Critical, sensor_, kinds::kSensorFailed,
              sa::format("quality %.2f (avail %.2f, valid %.2f, stab %.2f)", quality_,
                         availability_, validity_, stability_),
              1.0 - quality_);
    } else if (!degraded_alarmed_ && quality_ < kDegradedThreshold) {
        degraded_alarmed_ = true;
        raise(Severity::Warning, sensor_, kinds::kSensorDegraded,
              sa::format("quality %.2f (avail %.2f, valid %.2f, stab %.2f)", quality_,
                         availability_, validity_, stability_),
              1.0 - quality_);
    } else if (degraded_alarmed_ && quality_ >= kDegradedThreshold) {
        degraded_alarmed_ = false;
        failed_alarmed_ = false;
        raise(Severity::Info, sensor_, kinds::kSensorRecovered,
              sa::format("quality %.2f", quality_), 0.0);
    }
}

} // namespace sa::monitor
