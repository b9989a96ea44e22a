#include "rte/component.hpp"

#include "util/assert.hpp"
#include "util/log.hpp"

namespace sa::rte {

const char* to_string(ComponentState state) noexcept {
    switch (state) {
    case ComponentState::Stopped: return "stopped";
    case ComponentState::Running: return "running";
    case ComponentState::Failed: return "failed";
    case ComponentState::Compromised: return "compromised";
    case ComponentState::Contained: return "contained";
    }
    return "?";
}

Component::Component(ComponentSpec spec, Ecu& ecu, ServiceRegistry& services)
    : spec_(std::move(spec)), ecu_(ecu), services_(services) {
    SA_REQUIRE(!spec_.name.empty(), "component needs a name");
}

void Component::set_state(ComponentState next) {
    if (state_ == next) {
        return;
    }
    const ComponentState prev = state_;
    state_ = next;
    SA_LOG_DEBUG << "component " << spec_.name << ": " << to_string(prev) << " -> "
                 << to_string(next);
    state_changed_.emit(prev, next);
}

void Component::start() {
    if (state_ == ComponentState::Running) {
        return;
    }
    task_ids_.clear();
    for (const auto& t : spec_.tasks) {
        task_ids_.push_back(ecu_.scheduler().add_task(t));
    }
    for (const auto& svc : spec_.provides) {
        services_.provide(spec_.name, svc, [](const Message&) {});
    }
    set_state(ComponentState::Running);
}

void Component::stop() {
    for (TaskId id : task_ids_) {
        ecu_.scheduler().remove_task(id);
    }
    task_ids_.clear();
    services_.withdraw_all(spec_.name);
    set_state(ComponentState::Stopped);
}

void Component::restart() {
    stop();
    ++restarts_;
    start();
}

void Component::fail() {
    for (TaskId id : task_ids_) {
        ecu_.scheduler().remove_task(id);
    }
    task_ids_.clear();
    services_.withdraw_all(spec_.name);
    set_state(ComponentState::Failed);
}

void Component::compromise() {
    // Tasks keep running under attacker control; only the state changes so
    // the IDS story plays out: detection must come from observed behaviour.
    set_state(ComponentState::Compromised);
}

void Component::contain() {
    for (TaskId id : task_ids_) {
        ecu_.scheduler().remove_task(id);
    }
    task_ids_.clear();
    services_.withdraw_all(spec_.name);
    set_state(ComponentState::Contained);
}

} // namespace sa::rte
