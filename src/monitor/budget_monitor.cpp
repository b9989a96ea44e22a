#include "monitor/budget_monitor.hpp"

#include "monitor/anomaly_kinds.hpp"

#include <algorithm>

#include "util/string_util.hpp"

namespace sa::monitor {

BudgetMonitor::BudgetMonitor(sim::Simulator& simulator,
                             rte::FixedPriorityScheduler& scheduler)
    : Monitor(simulator, "budget:" + scheduler.ecu_name(), Domain::Platform),
      scheduler_(scheduler) {
    subscription_ = scheduler_.job_completed().subscribe(
        [this](const rte::JobRecord& job) { on_job(job); });
}

BudgetMonitor::~BudgetMonitor() {
    scheduler_.job_completed().unsubscribe(subscription_);
}

void BudgetMonitor::set_budget(rte::TaskId task, sim::Duration budget) {
    if (task >= budgets_.size()) {
        budgets_.resize(task + 1, sim::Duration::zero());
        has_budget_.resize(task + 1, 0);
    }
    budgets_[task] = budget;
    has_budget_[task] = 1;
}

sim::Duration BudgetMonitor::observed_max(rte::TaskId task) const {
    return task < observed_max_.size() ? observed_max_[task] : sim::Duration::zero();
}

void BudgetMonitor::on_job(const rte::JobRecord& job) {
    note_check();
    if (job.task >= observed_max_.size()) {
        observed_max_.resize(job.task + 1, sim::Duration::zero());
    }
    sim::Duration& seen = observed_max_[job.task];
    seen = std::max(seen, job.executed);

    if (job.task >= budgets_.size() || has_budget_[job.task] == 0 ||
        job.executed <= budgets_[job.task]) {
        return;
    }
    const sim::Duration budget = budgets_[job.task];
    ++violations_;
    const double magnitude = static_cast<double>(job.executed.count_ns()) /
                             static_cast<double>(budget.count_ns());
    if (mode_ == BudgetMode::Warn || mode_ == BudgetMode::Enforce) {
        raise(Severity::Warning, job.task_name, kinds::kBudgetViolation,
              sa::format("executed %s > budget %s", job.executed.str().c_str(),
                         budget.str().c_str()),
              magnitude);
    }
    if (mode_ == BudgetMode::Enforce && action_) {
        ++enforcements_;
        action_(job.task, job);
    }
}

} // namespace sa::monitor
