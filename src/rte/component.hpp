#pragma once
// Application component hosted by the RTE. A component bundles RTE tasks on
// one ECU, the services it provides/requires, and a lifecycle (the MCC
// starts/stops/restarts components; the security response may *contain* one,
// which withdraws its services and stops its tasks "immediately").

#include <string>
#include <vector>

#include "rte/ecu.hpp"
#include "rte/service.hpp"

namespace sa::rte {

enum class ComponentState { Stopped, Running, Failed, Compromised, Contained };

const char* to_string(ComponentState state) noexcept;

struct ComponentSpec {
    std::string name;
    std::string ecu;                       ///< binding target
    std::vector<RtTaskConfig> tasks;
    std::vector<std::string> provides;     ///< service names
    std::vector<std::string> requires_;    ///< services this component uses
    int safety_level = 0;                  ///< ASIL: 0=QM .. 4=D
};

class Component {
public:
    Component(ComponentSpec spec, Ecu& ecu, ServiceRegistry& services);

    Component(const Component&) = delete;
    Component& operator=(const Component&) = delete;

    [[nodiscard]] ComponentState state() const noexcept { return state_; }
    [[nodiscard]] Ecu& ecu() noexcept { return ecu_; }

    /// Start: register tasks with the scheduler, provide services (each
    /// with a sink handler).
    void start();

    /// Stop: remove tasks, withdraw services.
    void stop();

    /// Restart with a possibly different software setup (recovery tactic of
    /// the safety layer: "restarting the service with a different software
    /// setup may count as a countermeasure").
    void restart();

    /// Mark failed (crash fault): like stop(), but state = Failed.
    void fail();

    /// Mark compromised: tasks keep running (the attacker controls them).
    void compromise();

    /// Contain: stop + withdraw, state = Contained (security countermeasure).
    void contain();

    /// Take ownership of an externally created task (e.g. an injected
    /// attacker task): stop/contain/fail will remove it with the rest.
    void adopt_task(TaskId id) { task_ids_.push_back(id); }

    /// Task ids after start() (empty when stopped).
    [[nodiscard]] const std::vector<TaskId>& task_ids() const noexcept { return task_ids_; }

    [[nodiscard]] std::uint64_t restarts() const noexcept { return restarts_; }

    /// Emitted on every state change: (old, new).
    sim::Signal<ComponentState, ComponentState>& state_changed() noexcept {
        return state_changed_;
    }

private:
    void set_state(ComponentState next);

    ComponentSpec spec_;
    Ecu& ecu_;
    ServiceRegistry& services_;
    ComponentState state_ = ComponentState::Stopped;
    std::vector<TaskId> task_ids_;
    std::uint64_t restarts_ = 0;
    sim::Signal<ComponentState, ComponentState> state_changed_;
};

} // namespace sa::rte
