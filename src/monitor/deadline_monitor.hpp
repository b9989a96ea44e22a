#pragma once
// Deadline monitor: observes a scheduler and raises an anomaly for every
// missed deadline; additionally tracks the miss ratio over a sliding count
// window so sustained overload is distinguishable from a one-off miss.
//
// The window is a flat ring buffer with a running missed-count, so the
// per-job observation is O(1) with no container churn — this monitor runs
// once per completed job per attached instance, which makes it one of the
// densest ingest paths in the stack (see bench/monitor_overhead.cpp).

#include <vector>

#include "monitor/monitor.hpp"
#include "rte/scheduler.hpp"

namespace sa::monitor {

class DeadlineMonitor : public Monitor {
public:
    DeadlineMonitor(sim::Simulator& simulator, rte::FixedPriorityScheduler& scheduler,
                    std::size_t window = 100);
    ~DeadlineMonitor() override;

    /// Fraction of the last `window` jobs that missed their deadline.
    [[nodiscard]] double miss_ratio() const noexcept;
    [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }

private:
    void on_job(const rte::JobRecord& job);

    rte::FixedPriorityScheduler& scheduler_;
    std::size_t window_;
    std::vector<unsigned char> recent_; ///< ring of 0/1 miss flags, size window_
    std::size_t recent_size_ = 0;       ///< observations retained (<= window_)
    std::size_t recent_head_ = 0;       ///< next write position in the ring
    std::size_t recent_missed_ = 0;     ///< running count of 1s in the ring
    std::uint64_t misses_ = 0;
    bool ratio_alarmed_ = false;
    std::uint64_t subscription_ = 0;
};

} // namespace sa::monitor
