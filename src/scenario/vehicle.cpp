#include "scenario/scenario.hpp"

#include "model/contract_parser.hpp"
#include "util/assert.hpp"
#include "util/string_util.hpp"

namespace sa::scenario {

Vehicle::Vehicle(std::string name, sim::Simulator& simulator)
    : name_(std::move(name)), simulator_(simulator) {}

Vehicle::~Vehicle() {
    // Tear down every periodic activity registered on the simulator so a
    // vehicle built on an externally owned simulator can die first: the
    // simulator may keep running after this vehicle is gone. Monitors and
    // bus gateways cancel/guard their own events in their destructors.
    if (self_ != nullptr) {
        self_->stop();
    }
    if (tactic_planner_id_ != 0) {
        simulator_.cancel_periodic(tactic_planner_id_);
    }
    if (learned_pump_id_ != 0) {
        simulator_.cancel_periodic(learned_pump_id_);
    }
    if (driving_ != nullptr) {
        driving_->stop();
    }
    if (rte_ != nullptr) {
        rte_->stop(); // scheduler job releases + thermal updates per ECU
    }
}

model::IntegrationReport Vehicle::integrate(const std::string& description,
                                            std::string_view contract_text) {
    model::ContractParser parser;
    model::ChangeRequest change;
    change.description = description;
    change.contracts = parser.parse(std::string(contract_text));
    return integrate(change);
}

model::Mcc& Vehicle::mcc() {
    SA_REQUIRE(mcc_ != nullptr,
               "vehicle '" + name_ + "': no model domain (declare at least one ECU)");
    return *mcc_;
}

model::IntegrationReport Vehicle::integrate(const model::ChangeRequest& change) {
    model::IntegrationReport report = mcc().integrate(change);
    if (report.accepted) {
        rte_->apply(mcc_->make_rte_config());
    }
    return report;
}

bool Vehicle::has_bus_gateway(const std::string& name) const {
    return bus_gateways_.contains(name);
}

can::BusGateway& Vehicle::bus_gateway(const std::string& name) {
    auto it = bus_gateways_.find(name);
    SA_REQUIRE(it != bus_gateways_.end(),
               "vehicle '" + name_ + "': unknown bus gateway: " + name);
    return *it->second;
}

rte::CanGateway& Vehicle::can_endpoint(const std::string& ecu, const std::string& bus) {
    auto it = can_endpoints_.find({ecu, bus});
    SA_REQUIRE(it != can_endpoints_.end(), "vehicle '" + name_ +
                                               "': no CAN endpoint for ECU " + ecu +
                                               " on bus " + bus);
    return *it->second;
}

rte::TaskId Vehicle::rt_task(const std::string& ecu, const std::string& task) const {
    auto it = raw_tasks_.find({ecu, task});
    SA_REQUIRE(it != raw_tasks_.end(),
               "vehicle '" + name_ + "': unknown raw task " + ecu + "." + task);
    return it->second;
}

monitor::SensorQualityMonitor& Vehicle::sensor_quality(const std::string& sensor) {
    auto it = sensor_quality_.find(sensor);
    SA_REQUIRE(it != sensor_quality_.end(),
               "vehicle '" + name_ + "': no quality monitor for sensor " + sensor);
    return *it->second;
}

learn::AnomalyModelMonitor& Vehicle::learned_monitor() {
    SA_REQUIRE(learned_ != nullptr,
               "vehicle '" + name_ + "': learned_monitor() not declared");
    return *learned_;
}

skills::AbilityGraph& Vehicle::abilities() {
    SA_REQUIRE(abilities_ != nullptr,
               "vehicle '" + name_ + "': no skill graph configured");
    return *abilities_;
}

skills::DegradationPolicy& Vehicle::degradation_policy() {
    SA_REQUIRE(policy_ != nullptr,
               "vehicle '" + name_ + "': degradation_policy() not declared");
    return *policy_;
}

core::ObjectiveLayer& Vehicle::objective_layer() {
    SA_REQUIRE(objective_ != nullptr,
               "vehicle '" + name_ + "': objective layer not registered");
    return *objective_;
}

core::PlatformLayer& Vehicle::platform_layer() {
    SA_REQUIRE(coordinator_->has_layer(core::LayerId::Platform),
               "vehicle '" + name_ + "': platform layer not registered");
    auto* layer = dynamic_cast<core::PlatformLayer*>(
        &coordinator_->layer(core::LayerId::Platform));
    SA_REQUIRE(layer != nullptr, "platform layer has an unexpected type");
    return *layer;
}

core::SelfModel& Vehicle::self_model() {
    SA_REQUIRE(self_ != nullptr, "vehicle '" + name_ + "': self_model() not declared");
    return *self_;
}

vehicle::VehicleSim& Vehicle::driving() {
    SA_REQUIRE(driving_ != nullptr, "vehicle '" + name_ + "': driving() not declared");
    return *driving_;
}

vehicle::AccController& Vehicle::acc() noexcept {
    return driving_ != nullptr ? driving_->acc() : acc_;
}

vehicle::BrakeByWire& Vehicle::brakes() noexcept {
    return driving_ != nullptr ? driving_->brakes() : brakes_;
}

VehicleReport Vehicle::report() const {
    VehicleReport report;
    report.name = name_;
    report.jobs_completed = rte_->total_completed_jobs();
    report.deadline_misses = rte_->total_deadline_misses();
    report.anomalies = monitors_->total_anomalies();
    report.problems_handled = coordinator_->problems_handled();
    report.problems_resolved = coordinator_->problems_resolved();
    if (self_ != nullptr && self_->has_snapshot()) {
        report.self = self_->latest();
    }
    return report;
}

std::string VehicleReport::str() const {
    std::string text = format(
        "%s: jobs=%llu misses=%llu anomalies=%llu problems=%llu/%llu", name.c_str(),
        static_cast<unsigned long long>(jobs_completed),
        static_cast<unsigned long long>(deadline_misses),
        static_cast<unsigned long long>(anomalies),
        static_cast<unsigned long long>(problems_resolved),
        static_cast<unsigned long long>(problems_handled));
    if (self.has_value()) {
        text += " self=" + self->str();
    }
    return text;
}

const VehicleReport& ScenarioReport::vehicle(const std::string& name) const {
    for (const auto& v : vehicles) {
        if (v.name == name) {
            return v;
        }
    }
    sa::detail::contract_failed("precondition", "vehicle in report", __FILE__, __LINE__,
                                "no vehicle named " + name + " in the report");
}

std::string ScenarioReport::str() const {
    std::string text = format("t=%.3fs", at.s());
    for (const auto& v : vehicles) {
        text += "\n  " + v.str();
    }
    return text;
}

} // namespace sa::scenario
