#pragma once
// Streaming statistics accumulators used by monitors, benchmarks and the
// experiment harnesses (min/max/mean/variance via Welford, plus percentile
// support through a retained-sample reservoir).

#include <cstddef>
#include <limits>
#include <vector>

namespace sa {

/// Online accumulator: O(1) per observation, numerically stable variance.
class RunningStats {
public:
    void add(double x) noexcept;
    void merge(const RunningStats& other) noexcept;
    void reset() noexcept;

    [[nodiscard]] std::size_t count() const noexcept { return n_; }
    [[nodiscard]] bool empty() const noexcept { return n_ == 0; }
    [[nodiscard]] double mean() const noexcept;
    [[nodiscard]] double variance() const noexcept; ///< population variance
    [[nodiscard]] double stddev() const noexcept;
    [[nodiscard]] double min() const noexcept;
    [[nodiscard]] double max() const noexcept;
    [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(n_); }

private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/// Retains all samples; supports exact percentiles. Use for bounded series
/// (per-experiment latency distributions), not unbounded monitoring streams.
class SampleSet {
public:
    void add(double x);
    void clear() noexcept { samples_.clear(); sorted_ = true; }

    [[nodiscard]] std::size_t count() const noexcept { return samples_.size(); }
    [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }
    [[nodiscard]] double mean() const;
    [[nodiscard]] double min() const;
    [[nodiscard]] double max() const;

    /// Exact percentile by nearest-rank; p in [0, 100].
    [[nodiscard]] double percentile(double p) const;
    [[nodiscard]] double median() const { return percentile(50.0); }

    [[nodiscard]] const std::vector<double>& samples() const noexcept { return samples_; }

private:
    mutable std::vector<double> samples_;
    mutable bool sorted_ = true;
};

} // namespace sa
