#pragma once
// Worst-case response time analysis for static-priority preemptive (SPP)
// CPU scheduling using the busy-window technique (Lehoczky 1990 / Tindell,
// as used in CPA). This is the acceptance test the paper's MCC runs to
// "check real-time constraints based on a timing model of the system".

#include "analysis/task_model.hpp"

namespace sa::analysis {

class CpuWcrtAnalysis {
public:
    /// Analyze all tasks on the resource. Task priorities must be unique.
    [[nodiscard]] ResourceAnalysisResult analyze(const CpuResourceModel& cpu) const;

    /// Response time of a single task given its higher-priority interferers.
    /// Returns a non-converged result if the fixed point does not settle
    /// (utilization >= 1 among the considered tasks).
    [[nodiscard]] WcrtResult analyze_task(const CpuResourceModel& cpu,
                                          const TaskModel& task) const;
};

} // namespace sa::analysis
