#pragma once
// Fixed-priority preemptive scheduler for one simulated ECU. Jobs execute on
// the discrete-event kernel: work is tracked in nominal-speed nanoseconds and
// progresses at the ECU's current speed factor, so DVFS changes preempt and
// re-time the running job correctly. This is the executable counterpart of
// analysis::CpuResourceModel — the MCC analyses the model, the RTE runs this.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/signal.hpp"
#include "sim/simulator.hpp"

namespace sa::rte {

using sim::Duration;
using sim::Time;

using TaskId = std::uint32_t;

struct RtTaskConfig {
    std::string name;
    int priority = 0;                    ///< unique per ECU; smaller = higher
    Duration period = Duration::zero();  ///< zero => sporadic (released externally)
    Duration wcet = Duration::us(100);
    Duration bcet = Duration::zero();    ///< zero => == wcet
    Duration deadline = Duration::zero();///< zero => == period (or wcet*10 if sporadic)
    Duration phase = Duration::zero();   ///< release offset of the first job
    std::function<void(Time)> on_complete; ///< application body, runs at completion
    bool randomize_exec = true;          ///< draw exec time in [bcet, wcet]

    [[nodiscard]] Duration effective_deadline() const {
        if (deadline.count_ns() > 0) {
            return deadline;
        }
        if (period.count_ns() > 0) {
            return period;
        }
        return Duration(wcet.count_ns() * 10);
    }
};

/// A completed (or dropped) job, for monitors and statistics.
struct JobRecord {
    TaskId task = 0;
    std::string task_name;
    Time release;
    Time completion;
    Duration response = Duration::zero();
    Duration executed = Duration::zero(); ///< nominal-speed execution time consumed
    bool deadline_missed = false;
};

class FixedPriorityScheduler {
public:
    FixedPriorityScheduler(sim::Simulator& simulator, std::string ecu_name);

    FixedPriorityScheduler(const FixedPriorityScheduler&) = delete;
    FixedPriorityScheduler& operator=(const FixedPriorityScheduler&) = delete;

    /// Register a task. Periodic tasks start releasing once start() is called.
    TaskId add_task(RtTaskConfig config);

    /// Remove a task; pending jobs of that task are discarded.
    void remove_task(TaskId id);

    [[nodiscard]] bool has_task(TaskId id) const { return tasks_.contains(id); }
    [[nodiscard]] const RtTaskConfig* task_config(TaskId id) const;

    void start();
    void stop();
    [[nodiscard]] bool running() const noexcept { return started_; }

    /// Release one job of a (typically sporadic) task now.
    void release(TaskId id);

    /// Inject an execution-time override for the *next* job of the task
    /// (fault injection: WCET violation for budget-monitor scenarios).
    void inject_exec_time(TaskId id, Duration exec);

    /// DVFS: work progresses at `factor` (0 < factor <= 2). Changing speed
    /// re-times the running job.
    void set_speed_factor(double factor);
    [[nodiscard]] double speed_factor() const noexcept { return speed_; }

    // Signals for monitors.
    sim::Signal<const JobRecord&>& job_completed() noexcept { return job_completed_; }
    sim::Signal<const JobRecord&>& deadline_missed() noexcept { return deadline_missed_; }
    sim::Signal<TaskId, Time>& job_released() noexcept { return job_released_; }

    // Statistics.
    [[nodiscard]] std::uint64_t completed_jobs() const noexcept { return completed_; }
    [[nodiscard]] std::uint64_t missed_deadlines() const noexcept { return missed_; }
    [[nodiscard]] std::uint64_t dropped_jobs() const noexcept { return dropped_; }
    [[nodiscard]] std::int64_t busy_ns() const noexcept { return busy_ns_; }
    [[nodiscard]] double utilization(Time horizon) const;
    [[nodiscard]] const std::string& ecu_name() const noexcept { return ecu_name_; }
    [[nodiscard]] std::size_t ready_jobs() const noexcept { return ready_.size(); }

    /// Max pending jobs per task before overload shedding (drops).
    void set_queue_limit(std::size_t limit) noexcept { queue_limit_ = limit; }

private:
    struct Task {
        RtTaskConfig config;
        std::uint64_t periodic_id = 0; ///< simulator periodic handle
        std::optional<Duration> injected_exec;
    };
    struct Job {
        TaskId task;
        Time release;
        Time abs_deadline;
        std::int64_t remaining_ns; ///< nominal-speed work remaining
        std::int64_t total_ns;
        std::uint64_t seq;
    };

    void release_job(TaskId id);
    void dispatch();
    void preempt_running();
    void complete_running();
    [[nodiscard]] Job* highest_ready();
    [[nodiscard]] int task_priority(TaskId id) const;

    sim::Simulator& simulator_;
    std::string ecu_name_;
    std::map<TaskId, Task> tasks_;
    std::vector<Job> ready_; ///< pending jobs, including the running one
    std::optional<std::uint64_t> running_seq_;
    sim::EventHandle completion_event_;
    Time last_dispatch_ = Time::zero();
    double speed_ = 1.0;
    bool started_ = false;
    TaskId next_task_id_ = 1;
    std::uint64_t next_job_seq_ = 1;
    std::size_t queue_limit_ = 16;

    std::uint64_t completed_ = 0;
    std::uint64_t missed_ = 0;
    std::uint64_t dropped_ = 0;
    std::int64_t busy_ns_ = 0;
    JobRecord record_scratch_; ///< reused per completion (see complete_running)

    sim::Signal<const JobRecord&> job_completed_;
    sim::Signal<const JobRecord&> deadline_missed_;
    sim::Signal<TaskId, Time> job_released_;
};

} // namespace sa::rte
