#include "rte/rte.hpp"

#include "util/assert.hpp"
#include "util/log.hpp"

namespace sa::rte {

Rte::Rte(sim::Simulator& simulator)
    : simulator_(simulator), services_(simulator, access_) {}

Ecu& Rte::add_ecu(EcuConfig config) {
    SA_REQUIRE(!config.name.empty(), "ECU needs a name");
    SA_REQUIRE(!ecus_.contains(config.name), "duplicate ECU name: " + config.name);
    auto ecu = std::make_unique<Ecu>(simulator_, config);
    Ecu& ref = *ecu;
    ecus_[config.name] = std::move(ecu);
    return ref;
}

Ecu& Rte::ecu(const std::string& name) {
    auto it = ecus_.find(name);
    SA_REQUIRE(it != ecus_.end(), "unknown ECU: " + name);
    return *it->second;
}

bool Rte::has_ecu(const std::string& name) const { return ecus_.contains(name); }

can::CanBus& Rte::add_can_bus(const std::string& name, std::int64_t bitrate_bps) {
    SA_REQUIRE(!buses_.contains(name), "duplicate bus name: " + name);
    auto bus = std::make_unique<can::CanBus>(simulator_, bitrate_bps);
    can::CanBus& ref = *bus;
    buses_[name] = std::move(bus);
    return ref;
}

can::CanBus& Rte::can_bus(const std::string& name) {
    auto it = buses_.find(name);
    SA_REQUIRE(it != buses_.end(), "unknown bus: " + name);
    return *it->second;
}

void Rte::apply(const RteConfig& config) {
    // Grants first, so components can connect during their start hooks.
    for (const auto& [client, service] : config.grants) {
        access_.grant(client, service);
    }
    for (const auto& spec : config.components) {
        SA_REQUIRE(ecus_.contains(spec.ecu),
                   "component " + spec.name + " bound to unknown ECU " + spec.ecu);
        if (components_.contains(spec.name)) {
            // Update: replace the component (stop old, start new spec).
            components_[spec.name]->stop();
            components_.erase(spec.name);
        }
        auto comp = std::make_unique<Component>(spec, ecu(spec.ecu), services_);
        comp->start();
        components_[spec.name] = std::move(comp);
    }
    SA_LOG_INFO << "RTE applied configuration: " << config.components.size()
                << " component(s), " << config.grants.size() << " grant(s)";
}

void Rte::remove_component(const std::string& name) {
    auto it = components_.find(name);
    if (it == components_.end()) {
        return;
    }
    it->second->stop();
    components_.erase(it);
}

Component& Rte::component(const std::string& name) {
    auto it = components_.find(name);
    SA_REQUIRE(it != components_.end(), "unknown component: " + name);
    return *it->second;
}

bool Rte::has_component(const std::string& name) const {
    return components_.contains(name);
}

std::vector<std::string> Rte::component_names() const {
    std::vector<std::string> names;
    names.reserve(components_.size());
    for (const auto& [name, _] : components_) {
        names.push_back(name);
    }
    return names;
}

void Rte::start() {
    for (auto& [_, ecu] : ecus_) {
        ecu->start();
    }
}

void Rte::stop() {
    for (auto& [_, ecu] : ecus_) {
        ecu->stop();
    }
}

std::uint64_t Rte::total_deadline_misses() const {
    std::uint64_t n = 0;
    for (const auto& [_, ecu] : ecus_) {
        n += ecu->scheduler().missed_deadlines();
    }
    return n;
}

std::uint64_t Rte::total_completed_jobs() const {
    std::uint64_t n = 0;
    for (const auto& [_, ecu] : ecus_) {
        n += ecu->scheduler().completed_jobs();
    }
    return n;
}

} // namespace sa::rte
