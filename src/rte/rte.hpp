#pragma once
// Execution-domain facade (the green box of Fig. 1): run-time environment
// hosting ECUs, buses, components, the service registry and access control.
// The MCC deploys RteConfig objects here; monitors attach to the signals the
// RTE exposes. The RTE enforces the modelled behaviour (§II-B: "the execution
// domain must be able to enforce the modeled behavior where necessary").

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "can/bus.hpp"
#include "rte/component.hpp"
#include "rte/ecu.hpp"
#include "rte/service.hpp"

namespace sa::rte {

/// Deployment configuration produced by the model domain (MCC).
struct RteConfig {
    std::vector<ComponentSpec> components;
    /// Access rules: (client component, service).
    std::vector<std::pair<std::string, std::string>> grants;
};

class Rte {
public:
    explicit Rte(sim::Simulator& simulator);

    Rte(const Rte&) = delete;
    Rte& operator=(const Rte&) = delete;

    // --- platform assembly -------------------------------------------------
    Ecu& add_ecu(EcuConfig config);
    [[nodiscard]] Ecu& ecu(const std::string& name);
    [[nodiscard]] bool has_ecu(const std::string& name) const;
    /// Call `visit(Ecu&)` for every ECU in name order, copying no name (the
    /// platform layer's health() runs on every self-model capture).
    template <typename Visit>
    void for_each_ecu(Visit&& visit) {
        for (auto& entry : ecus_) {
            visit(*entry.second);
        }
    }

    can::CanBus& add_can_bus(const std::string& name, std::int64_t bitrate_bps);
    [[nodiscard]] can::CanBus& can_bus(const std::string& name);

    // --- configuration deployment (called by the MCC) ----------------------
    /// Apply a configuration: instantiate & start new components, apply
    /// access grants. Existing components not mentioned stay untouched.
    void apply(const RteConfig& config);

    /// Remove a component entirely (stop + destroy).
    void remove_component(const std::string& name);

    [[nodiscard]] Component& component(const std::string& name);
    [[nodiscard]] bool has_component(const std::string& name) const;
    [[nodiscard]] std::vector<std::string> component_names() const;
    /// Call `visit(const Component&)` for every component in name order,
    /// copying no name (the network layer's health()).
    template <typename Visit>
    void for_each_component(Visit&& visit) const {
        for (const auto& entry : components_) {
            visit(std::as_const(*entry.second));
        }
    }

    // --- subsystems ---------------------------------------------------------
    ServiceRegistry& services() noexcept { return services_; }
    AccessControl& access() noexcept { return access_; }

    /// Start all ECUs (schedulers + thermal models).
    void start();
    void stop();

    // Aggregate statistics used by the platform monitor.
    [[nodiscard]] std::uint64_t total_deadline_misses() const;
    [[nodiscard]] std::uint64_t total_completed_jobs() const;

private:
    sim::Simulator& simulator_;
    AccessControl access_;
    ServiceRegistry services_;
    std::map<std::string, std::unique_ptr<Ecu>> ecus_;
    std::map<std::string, std::unique_ptr<can::CanBus>> buses_;
    std::map<std::string, std::unique_ptr<Component>> components_;
};

} // namespace sa::rte
