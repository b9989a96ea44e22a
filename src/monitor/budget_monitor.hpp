#pragma once
// Multi-mode execution-budget monitor after Neukirchner et al. [6]
// ("Multi-Mode Monitoring for Mixed-Criticality Real-time Systems"): watches
// the execution time of tasks against their declared WCET budget and reacts
// according to the active mode:
//   Observe  — record violations only (model refinement input)
//   Warn     — raise anomalies
//   Enforce  — raise anomalies and invoke an enforcement action (the MCC
//              configures it, e.g. restart or contain the component)

#include <functional>
#include <vector>

#include "monitor/monitor.hpp"
#include "rte/scheduler.hpp"

namespace sa::monitor {

enum class BudgetMode { Observe, Warn, Enforce };

class BudgetMonitor : public Monitor {
public:
    using EnforcementAction = std::function<void(rte::TaskId, const rte::JobRecord&)>;

    BudgetMonitor(sim::Simulator& simulator, rte::FixedPriorityScheduler& scheduler);
    ~BudgetMonitor() override;

    /// Declare the budget for a task (usually its modelled WCET).
    void set_budget(rte::TaskId task, sim::Duration budget);

    void set_mode(BudgetMode mode) noexcept { mode_ = mode; }

    void set_enforcement_action(EnforcementAction action) { action_ = std::move(action); }

    [[nodiscard]] std::uint64_t violations() const noexcept { return violations_; }
    [[nodiscard]] std::uint64_t enforcements() const noexcept { return enforcements_; }

    /// Largest observed execution time per task (model-refinement feedback:
    /// "extract run-time metrics that can be fed back into the model domain").
    [[nodiscard]] sim::Duration observed_max(rte::TaskId task) const;

private:
    void on_job(const rte::JobRecord& job);

    rte::FixedPriorityScheduler& scheduler_;
    BudgetMode mode_ = BudgetMode::Warn;
    EnforcementAction action_;
    // TaskIds are dense per-scheduler indices, so per-task state lives in
    // TaskId-indexed vectors instead of std::map: the on_job observation
    // runs once per completed job and must not pay tree lookups.
    std::vector<sim::Duration> budgets_;
    std::vector<unsigned char> has_budget_;
    std::vector<sim::Duration> observed_max_;
    std::uint64_t violations_ = 0;
    std::uint64_t enforcements_ = 0;
    std::uint64_t subscription_ = 0;
};

} // namespace sa::monitor
