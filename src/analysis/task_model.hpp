#pragma once
// Task and resource models consumed by the response-time analyses. These are
// *models* (the red domain of Fig. 1), distinct from the executable RTE tasks
// in src/rte — the MCC checks a model before it configures the RTE.

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/event_model.hpp"
#include "sim/time.hpp"

namespace sa::analysis {

using sim::Duration;

/// A software task bound to a CPU, scheduled with static priority preemptive
/// (SPP) scheduling. Smaller priority value = higher priority.
struct TaskModel {
    std::string name;
    Duration wcet;       ///< worst-case execution time at nominal frequency
    Duration bcet;       ///< best-case execution time (>= 0, <= wcet)
    int priority = 0;    ///< unique per resource; smaller = more important
    EventModel activation = EventModel::periodic(Duration::ms(10));
    Duration deadline = Duration::zero(); ///< relative; zero = implicit (== period)

    [[nodiscard]] Duration effective_deadline() const {
        return deadline.count_ns() > 0 ? deadline : activation.period();
    }

    /// Long-run CPU utilization contribution in [0, inf).
    [[nodiscard]] double utilization() const {
        return static_cast<double>(wcet.count_ns()) /
               static_cast<double>(activation.period().count_ns());
    }
};

/// A CPU resource with a set of SPP tasks. `speed_factor` scales execution
/// times (DVFS: factor 0.5 => everything takes twice as long).
struct CpuResourceModel {
    std::string name;
    std::vector<TaskModel> tasks;
    double speed_factor = 1.0;

    [[nodiscard]] double utilization() const {
        double u = 0.0;
        for (const auto& t : tasks) {
            u += t.utilization() / speed_factor;
        }
        return u;
    }

    /// Scaled WCET of a task on this CPU.
    [[nodiscard]] Duration scaled_wcet(const TaskModel& t) const {
        return Duration(static_cast<std::int64_t>(
            static_cast<double>(t.wcet.count_ns()) / speed_factor));
    }
};

/// A CAN message model: fixed-priority non-preemptive arbitration keyed by
/// CAN identifier (lower id = higher priority).
struct CanMessageModel {
    std::string name;
    std::uint32_t can_id = 0;
    int payload_bytes = 8;
    bool extended_id = false;
    EventModel activation = EventModel::periodic(Duration::ms(10));
    Duration deadline = Duration::zero();

    [[nodiscard]] Duration effective_deadline() const {
        return deadline.count_ns() > 0 ? deadline : activation.period();
    }
};

/// A CAN bus resource.
struct CanBusModel {
    std::string name;
    std::int64_t bitrate_bps = 500'000;
    std::vector<CanMessageModel> messages;
};

/// Result of a response-time analysis for one entity.
struct WcrtResult {
    std::string name;
    Duration wcrt = Duration::zero();
    Duration deadline = Duration::zero();
    bool schedulable = false;
    bool converged = true; ///< false if the busy-window iteration diverged
};

/// Bounds of the CPU and CAN busy-window analyses: fixed-point iterations
/// per job, and jobs examined per busy window. An analysis that needs more
/// reports its result as not converged.
inline constexpr int kWcrtMaxIterations = 10'000;
inline constexpr int kWcrtMaxBusyJobs = 10'000;

/// Result for a whole resource.
struct ResourceAnalysisResult {
    std::string resource;
    std::vector<WcrtResult> entities;
    bool all_schedulable = true;
    double utilization = 0.0;

    [[nodiscard]] const WcrtResult* find(const std::string& name) const {
        for (const auto& e : entities) {
            if (e.name == name) {
                return &e;
            }
        }
        return nullptr;
    }
};

} // namespace sa::analysis
