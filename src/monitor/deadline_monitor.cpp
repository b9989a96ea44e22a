#include "monitor/deadline_monitor.hpp"

#include "monitor/anomaly_kinds.hpp"

#include "util/string_util.hpp"

namespace sa::monitor {

DeadlineMonitor::DeadlineMonitor(sim::Simulator& simulator,
                                 rte::FixedPriorityScheduler& scheduler, std::size_t window)
    : Monitor(simulator, "deadline:" + scheduler.ecu_name(), Domain::Platform),
      scheduler_(scheduler),
      window_(window) {
    subscription_ = scheduler_.job_completed().subscribe(
        [this](const rte::JobRecord& job) { on_job(job); });
}

DeadlineMonitor::~DeadlineMonitor() {
    scheduler_.job_completed().unsubscribe(subscription_);
}

double DeadlineMonitor::miss_ratio() const noexcept {
    if (recent_size_ == 0) {
        return 0.0;
    }
    return static_cast<double>(recent_missed_) / static_cast<double>(recent_size_);
}

void DeadlineMonitor::on_job(const rte::JobRecord& job) {
    note_check();
    if (window_ > 0) {
        if (recent_.empty()) {
            recent_.assign(window_, 0); // one allocation, on the first job
        }
        if (recent_size_ == window_) {
            // Ring is full: the slot being overwritten holds the oldest
            // observation — retire it from the running count.
            recent_missed_ -= recent_[recent_head_];
        } else {
            ++recent_size_;
        }
        recent_[recent_head_] = job.deadline_missed ? 1 : 0;
        recent_missed_ += recent_[recent_head_];
        recent_head_ = recent_head_ + 1 == window_ ? 0 : recent_head_ + 1;
    }
    if (job.deadline_missed) {
        ++misses_;
        raise(Severity::Warning, job.task_name, kinds::kDeadlineMiss,
              sa::format("response %s", job.response.str().c_str()),
              1.0);
    }
    // Miss ratio raising "miss_ratio_high"; half of it clears the alarm.
    constexpr double kRatioThreshold = 0.1;
    const double ratio = miss_ratio();
    if (!ratio_alarmed_ && recent_size_ >= window_ / 2 && ratio > kRatioThreshold) {
        ratio_alarmed_ = true;
        raise(Severity::Critical, scheduler_.ecu_name(), kinds::kMissRatioHigh,
              sa::format("miss ratio %.2f over last %zu jobs", ratio, recent_size_),
              ratio / kRatioThreshold);
    }
    if (ratio_alarmed_ && ratio <= kRatioThreshold / 2) {
        ratio_alarmed_ = false;
        raise(Severity::Info, scheduler_.ecu_name(), kinds::kMissRatioRecovered,
              sa::format("miss ratio %.2f", ratio), 0.0);
    }
}

} // namespace sa::monitor
