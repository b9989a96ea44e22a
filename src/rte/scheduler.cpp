#include "rte/scheduler.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace sa::rte {

FixedPriorityScheduler::FixedPriorityScheduler(sim::Simulator& simulator, std::string ecu_name)
    : simulator_(simulator), ecu_name_(std::move(ecu_name)) {}

TaskId FixedPriorityScheduler::add_task(RtTaskConfig config) {
    SA_REQUIRE(config.wcet.count_ns() > 0, "task WCET must be positive: " + config.name);
    SA_REQUIRE(config.bcet.count_ns() >= 0 && config.bcet <= config.wcet,
               "task BCET must satisfy 0 <= BCET <= WCET: " + config.name);
    for (const auto& [id, t] : tasks_) {
        SA_REQUIRE(t.config.priority != config.priority,
                   "task priorities on an ECU must be unique: " + config.name);
    }
    if (config.bcet.count_ns() == 0) {
        config.bcet = config.wcet;
    }
    const TaskId id = next_task_id_++;
    Task task;
    task.config = std::move(config);
    const bool periodic = task.config.period.count_ns() > 0;
    auto& slot = tasks_[id];
    slot = std::move(task);
    if (periodic && started_) {
        slot.periodic_id = simulator_.schedule_periodic(
            slot.config.period, [this, id] { release_job(id); }, slot.config.phase);
    }
    return id;
}

void FixedPriorityScheduler::remove_task(TaskId id) {
    auto it = tasks_.find(id);
    if (it == tasks_.end()) {
        return;
    }
    if (it->second.periodic_id != 0) {
        simulator_.cancel_periodic(it->second.periodic_id);
    }
    // Discard pending jobs; if the running job belongs to this task, stop it.
    const bool was_running =
        running_seq_.has_value() &&
        std::any_of(ready_.begin(), ready_.end(), [&](const Job& j) {
            return j.seq == *running_seq_ && j.task == id;
        });
    if (was_running) {
        preempt_running();
        running_seq_.reset();
    }
    ready_.erase(std::remove_if(ready_.begin(), ready_.end(),
                                [&](const Job& j) { return j.task == id; }),
                 ready_.end());
    tasks_.erase(it);
    dispatch();
}

void FixedPriorityScheduler::start() {
    if (started_) {
        return;
    }
    started_ = true;
    for (auto& [id, task] : tasks_) {
        if (task.config.period.count_ns() > 0 && task.periodic_id == 0) {
            const TaskId tid = id;
            task.periodic_id = simulator_.schedule_periodic(
                task.config.period, [this, tid] { release_job(tid); }, task.config.phase);
        }
    }
}

void FixedPriorityScheduler::stop() {
    if (!started_) {
        return;
    }
    started_ = false;
    for (auto& [id, task] : tasks_) {
        if (task.periodic_id != 0) {
            simulator_.cancel_periodic(task.periodic_id);
            task.periodic_id = 0;
        }
    }
    preempt_running();
    running_seq_.reset();
    ready_.clear();
}

void FixedPriorityScheduler::release(TaskId id) {
    SA_REQUIRE(tasks_.contains(id), "release of unknown task");
    release_job(id);
}

void FixedPriorityScheduler::inject_exec_time(TaskId id, Duration exec) {
    SA_REQUIRE(exec.count_ns() > 0, "injected execution time must be positive");
    auto it = tasks_.find(id);
    SA_REQUIRE(it != tasks_.end(), "inject_exec_time for unknown task");
    it->second.injected_exec = exec;
}

void FixedPriorityScheduler::set_speed_factor(double factor) {
    SA_REQUIRE(factor > 0.0 && factor <= 2.0, "speed factor must be in (0, 2]");
    if (factor == speed_) {
        return;
    }
    preempt_running(); // account progress at old speed
    running_seq_.reset();
    speed_ = factor;
    dispatch();
}

int FixedPriorityScheduler::task_priority(TaskId id) const {
    auto it = tasks_.find(id);
    SA_ASSERT(it != tasks_.end(), "priority lookup for unknown task");
    return it->second.config.priority;
}

void FixedPriorityScheduler::release_job(TaskId id) {
    auto it = tasks_.find(id);
    if (it == tasks_.end()) {
        return; // task removed; stale periodic event
    }
    Task& task = it->second;
    const std::size_t backlog = static_cast<std::size_t>(
        std::count_if(ready_.begin(), ready_.end(), [&](const Job& j) { return j.task == id; }));
    // Max pending jobs per task before overload shedding (drops).
    constexpr std::size_t kQueueLimit = 16;
    if (backlog >= kQueueLimit) {
        ++dropped_;
        return;
    }
    Duration exec = task.config.wcet;
    if (task.injected_exec.has_value()) {
        exec = *task.injected_exec;
        task.injected_exec.reset();
    } else if (task.config.randomize_exec && task.config.bcet < task.config.wcet) {
        exec = Duration(simulator_.rng().uniform_int(task.config.bcet.count_ns(),
                                                     task.config.wcet.count_ns()));
    }
    Job job;
    job.task = id;
    job.release = simulator_.now();
    job.abs_deadline = simulator_.now() + task.config.effective_deadline();
    job.remaining_ns = exec.count_ns();
    job.total_ns = exec.count_ns();
    job.seq = next_job_seq_++;
    ready_.push_back(job);
    dispatch();
}

FixedPriorityScheduler::Job* FixedPriorityScheduler::highest_ready() {
    Job* best = nullptr;
    for (auto& j : ready_) {
        if (best == nullptr || task_priority(j.task) < task_priority(best->task) ||
            (task_priority(j.task) == task_priority(best->task) && j.seq < best->seq)) {
            best = &j;
        }
    }
    return best;
}

void FixedPriorityScheduler::preempt_running() {
    if (!running_seq_.has_value()) {
        return;
    }
    simulator_.cancel(completion_event_);
    completion_event_ = sim::EventHandle{};
    // Account the work done since dispatch at the current speed.
    const std::int64_t elapsed = (simulator_.now() - last_dispatch_).count_ns();
    const auto progressed = static_cast<std::int64_t>(static_cast<double>(elapsed) * speed_);
    busy_ns_ += elapsed;
    for (auto& j : ready_) {
        if (j.seq == *running_seq_) {
            j.remaining_ns = std::max<std::int64_t>(0, j.remaining_ns - progressed);
            break;
        }
    }
}

void FixedPriorityScheduler::dispatch() {
    Job* best = highest_ready();
    if (best == nullptr) {
        if (running_seq_.has_value()) {
            preempt_running();
            running_seq_.reset();
        }
        return;
    }
    if (running_seq_.has_value()) {
        if (*running_seq_ == best->seq) {
            return; // already running the right job
        }
        preempt_running();
        running_seq_.reset();
    }
    running_seq_ = best->seq;
    last_dispatch_ = simulator_.now();
    const auto wall_ns = static_cast<std::int64_t>(
        static_cast<double>(best->remaining_ns) / speed_ + 0.999999);
    completion_event_ =
        simulator_.schedule(Duration(std::max<std::int64_t>(wall_ns, 1)),
                            [this] { complete_running(); });
}

void FixedPriorityScheduler::complete_running() {
    SA_ASSERT(running_seq_.has_value(), "completion without a running job");
    const std::uint64_t seq = *running_seq_;
    // Account busy time for the final slice.
    const std::int64_t elapsed = (simulator_.now() - last_dispatch_).count_ns();
    busy_ns_ += elapsed;
    running_seq_.reset();
    completion_event_ = sim::EventHandle{};

    auto it = std::find_if(ready_.begin(), ready_.end(),
                           [&](const Job& j) { return j.seq == seq; });
    SA_ASSERT(it != ready_.end(), "running job vanished from ready set");
    Job job = *it;
    ready_.erase(it);

    auto task_it = tasks_.find(job.task);
    // Reuse the member scratch record: task_name's capacity survives across
    // completions, so the per-job monitor notification stops allocating.
    // complete_running never nests (it only runs as a scheduled event), so
    // one scratch is enough.
    JobRecord& record = record_scratch_;
    record.task = job.task;
    if (task_it != tasks_.end()) {
        record.task_name.assign(task_it->second.config.name);
    } else {
        record.task_name.assign("<removed>");
    }
    record.release = job.release;
    record.completion = simulator_.now();
    record.response = record.completion - record.release;
    record.executed = Duration(job.total_ns);
    record.deadline_missed = record.completion > job.abs_deadline;

    ++completed_;
    if (record.deadline_missed) {
        ++missed_;
    }

    // Application body runs before monitors see the completion, mirroring a
    // real RTE where the job's last action happens inside the job itself.
    if (task_it != tasks_.end() && task_it->second.config.on_complete) {
        task_it->second.config.on_complete(simulator_.now());
    }
    job_completed_.emit(record);
    dispatch();
}

double FixedPriorityScheduler::utilization(Time horizon) const {
    if (horizon.ns() <= 0) {
        return 0.0;
    }
    return static_cast<double>(busy_ns_) / static_cast<double>(horizon.ns());
}

} // namespace sa::rte
