#pragma once
// Worst-case response time analysis for CAN messages (fixed-priority
// non-preemptive arbitration), following Davis/Burns/Bril/Lukkien,
// "Controller Area Network (CAN) schedulability analysis: refuted,
// revisited and revised" (RTSJ 2007). Used by the MCC to admit network
// configurations and by the security viewpoint to bound IDS detection lag.

#include "analysis/task_model.hpp"

namespace sa::analysis {

/// Worst-case frame transmission time in bits, including the worst-case
/// number of stuff bits. Standard (11-bit) and extended (29-bit) framing.
[[nodiscard]] std::int64_t can_frame_bits_worst_case(int payload_bytes, bool extended_id);

/// Transmission time of a frame at the given bitrate.
[[nodiscard]] sim::Duration can_frame_time(int payload_bytes, bool extended_id,
                                           std::int64_t bitrate_bps);

class CanWcrtAnalysis {
public:
    /// Analyze all messages on the bus. CAN ids must be unique.
    [[nodiscard]] ResourceAnalysisResult analyze(const CanBusModel& bus) const;

    [[nodiscard]] WcrtResult analyze_message(const CanBusModel& bus,
                                             const CanMessageModel& msg) const;

    /// Bus utilization in [0, inf).
    [[nodiscard]] static double utilization(const CanBusModel& bus);
};

} // namespace sa::analysis
