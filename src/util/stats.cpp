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
