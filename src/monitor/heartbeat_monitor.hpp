#pragma once
// Heartbeat / liveness monitor. The paper contrasts this with richer data-
// quality monitoring (SAFER "activates degradation only if the heartbeat of
// a sensor goes missing"); we provide it both as baseline and as a building
// block: job completions of a component's tasks count as heartbeats.

#include <string>

#include "monitor/monitor.hpp"
#include "rte/component.hpp"

namespace sa::monitor {

class HeartbeatMonitor : public Monitor {
public:
    /// Raises "heartbeat_loss" when no beat arrives within `timeout`.
    HeartbeatMonitor(sim::Simulator& simulator, std::string watched, sim::Duration timeout,
                     sim::Duration check_period = sim::Duration::ms(10));
    ~HeartbeatMonitor() override;

    /// Manual beat (e.g. from a sensor driver).
    void beat();

    /// Subscribe to a component's task completions as heartbeats.
    void attach(rte::Component& component);

    void start();
    void stop();

    [[nodiscard]] bool alive() const noexcept { return alive_; }

private:
    void check();

    std::string watched_;
    sim::Duration timeout_;
    sim::Duration check_period_;
    sim::Time last_beat_ = sim::Time::zero();
    bool alive_ = true;
    bool started_ = false;
    std::uint64_t periodic_id_ = 0;
    rte::FixedPriorityScheduler* attached_sched_ = nullptr;
    std::uint64_t subscription_ = 0;
    std::vector<rte::TaskId> watched_tasks_;
};

} // namespace sa::monitor
