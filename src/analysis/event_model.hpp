#pragma once
// Standard PJD (period / jitter / minimum-distance) event models as used in
// Compositional Performance Analysis (CPA, the analysis framework behind the
// paper's "worst-case response time analysis" acceptance tests).
//
// eta_plus(dt)  : max number of events in any half-open window of length dt
// eta_minus(dt) : min number of events in any window of length dt
// delta_minus(n): min distance between the 1st and n-th event
// delta_plus(n) : max distance between the 1st and n-th event

#include <cstdint>

#include "sim/time.hpp"

namespace sa::analysis {

using sim::Duration;

class EventModel {
public:
    /// Strictly periodic stream.
    static EventModel periodic(Duration period);

    /// Periodic with jitter; d_min bounds event bursts (0 = no bound needed).
    static EventModel periodic_jitter(Duration period, Duration jitter,
                                      Duration d_min = Duration::zero());

    /// Sporadic stream: minimum inter-arrival only.
    static EventModel sporadic(Duration min_interarrival);

    [[nodiscard]] Duration period() const noexcept { return period_; }
    [[nodiscard]] Duration jitter() const noexcept { return jitter_; }

    [[nodiscard]] std::int64_t eta_plus(Duration window) const;
    [[nodiscard]] std::int64_t eta_minus(Duration window) const;
    [[nodiscard]] Duration delta_minus(std::int64_t n) const;
    [[nodiscard]] Duration delta_plus(std::int64_t n) const;

    /// Long-run activation rate (events per second).
    [[nodiscard]] double rate_hz() const;

    /// Event model of the output stream of a task with response-time jitter
    /// `response_jitter` (classic CPA propagation: J_out = J_in + R - B).
    [[nodiscard]] EventModel with_added_jitter(Duration response_jitter) const;

    bool operator==(const EventModel&) const = default;

private:
    EventModel(Duration period, Duration jitter, Duration d_min);

    Duration period_;
    Duration jitter_;
    Duration d_min_;
};

} // namespace sa::analysis
