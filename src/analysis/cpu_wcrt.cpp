#include "analysis/cpu_wcrt.hpp"

#include <algorithm>
#include <set>

#include "util/assert.hpp"

namespace sa::analysis {

namespace {

/// Interference of higher-priority tasks within a window of length w.
sim::Duration interference(const CpuResourceModel& cpu, const TaskModel& task,
                           sim::Duration w) {
    std::int64_t total = 0;
    for (const auto& hp : cpu.tasks) {
        if (hp.priority < task.priority) {
            total += hp.activation.eta_plus(w) * cpu.scaled_wcet(hp).count_ns();
        }
    }
    return sim::Duration(total);
}

} // namespace

ResourceAnalysisResult CpuWcrtAnalysis::analyze(const CpuResourceModel& cpu) const {
    std::set<int> prios;
    for (const auto& t : cpu.tasks) {
        SA_REQUIRE(prios.insert(t.priority).second,
                   "task priorities on a CPU must be unique: " + t.name);
    }
    ResourceAnalysisResult result;
    result.resource = cpu.name;
    result.utilization = cpu.utilization();
    for (const auto& t : cpu.tasks) {
        WcrtResult r = analyze_task(cpu, t);
        result.all_schedulable = result.all_schedulable && r.schedulable;
        result.entities.push_back(std::move(r));
    }
    return result;
}

WcrtResult CpuWcrtAnalysis::analyze_task(const CpuResourceModel& cpu,
                                         const TaskModel& task) const {
    SA_REQUIRE(task.wcet.count_ns() > 0, "task WCET must be positive: " + task.name);
    SA_REQUIRE(task.bcet.count_ns() >= 0 && task.bcet <= task.wcet,
               "task BCET must satisfy 0 <= BCET <= WCET: " + task.name);

    WcrtResult out;
    out.name = task.name;
    out.deadline = task.effective_deadline();

    const sim::Duration c = cpu.scaled_wcet(task);

    // Busy-window: examine the q-th job (q = 1, 2, ...) until the busy
    // period ends (completion of job q before arrival of job q+1).
    sim::Duration worst = sim::Duration::zero();
    bool converged = true;
    for (int q = 1; q <= kWcrtMaxBusyJobs; ++q) {
        // Fixed point: w = q*C + I(w)
        sim::Duration w = sim::Duration(q * c.count_ns());
        bool settled = false;
        for (int it = 0; it < kWcrtMaxIterations; ++it) {
            const sim::Duration next =
                sim::Duration(q * c.count_ns() + interference(cpu, task, w).count_ns());
            if (next == w) {
                settled = true;
                break;
            }
            w = next;
        }
        if (!settled) {
            converged = false;
            break;
        }
        // Response time of job q: completion minus its earliest possible
        // arrival, delta_minus(q) before the busy window start (+ jitter is
        // already inside eta_plus of the interferers; for the task itself the
        // q-th activation arrives no earlier than delta-(q)).
        const sim::Duration resp = w - task.activation.delta_minus(q);
        worst = std::max(worst, resp);
        // Busy period ends when job q completes before job q+1 can arrive.
        if (w <= task.activation.delta_minus(q + 1)) {
            break;
        }
        if (q == kWcrtMaxBusyJobs) {
            converged = false;
        }
    }

    out.converged = converged;
    out.wcrt = converged ? worst : sim::Duration(INT64_MAX / 2);
    out.schedulable = converged && out.wcrt <= out.deadline;
    return out;
}

} // namespace sa::analysis
