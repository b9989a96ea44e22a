#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace sa {

void RunningStats::add(double x) noexcept {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

void RunningStats::merge(const RunningStats& other) noexcept {
    if (other.n_ == 0) {
        return;
    }
    if (n_ == 0) {
        *this = other;
        return;
    }
    const double na = static_cast<double>(n_);
    const double nb = static_cast<double>(other.n_);
    const double delta = other.mean_ - mean_;
    const double total = na + nb;
    mean_ += delta * nb / total;
    m2_ += other.m2_ + delta * delta * na * nb / total;
    n_ += other.n_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void RunningStats::reset() noexcept { *this = RunningStats{}; }

double RunningStats::mean() const noexcept { return n_ ? mean_ : 0.0; }

double RunningStats::variance() const noexcept {
    return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStats::min() const noexcept { return n_ ? min_ : 0.0; }

double RunningStats::max() const noexcept { return n_ ? max_ : 0.0; }

void SampleSet::add(double x) {
    if (samples_.capacity() == 0) {
        // Skip the 1/2/4/8 doubling ramp: even short-lived sample sets (one
        // latency series per bench world) record a few observations.
        samples_.reserve(16);
    }
    samples_.push_back(x);
    sorted_ = false;
}

double SampleSet::mean() const {
    SA_REQUIRE(!samples_.empty(), "mean of empty sample set");
    double sum = 0.0;
    for (double s : samples_) {
        sum += s;
    }
    return sum / static_cast<double>(samples_.size());
}

double SampleSet::min() const {
    SA_REQUIRE(!samples_.empty(), "min of empty sample set");
    return *std::min_element(samples_.begin(), samples_.end());
}

double SampleSet::max() const {
    SA_REQUIRE(!samples_.empty(), "max of empty sample set");
    return *std::max_element(samples_.begin(), samples_.end());
}

double SampleSet::percentile(double p) const {
    SA_REQUIRE(!samples_.empty(), "percentile of empty sample set");
    SA_REQUIRE(p >= 0.0 && p <= 100.0, "percentile must be within [0,100]");
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
    if (p <= 0.0) {
        return samples_.front();
    }
    const auto n = samples_.size();
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
    return samples_[std::min(rank, n) - 1];
}

} // namespace sa
