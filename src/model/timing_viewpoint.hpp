#pragma once
// Timing viewpoint: builds per-resource analysis models from the contracts
// and the mapping, then runs the worst-case response time analyses as
// acceptance tests (§II-A: "a worst-case response time analysis can check
// real-time constraints based on a timing model of the system").

#include "analysis/can_wcrt.hpp"
#include "analysis/cpu_wcrt.hpp"
#include "model/viewpoint.hpp"

namespace sa::model {

class TimingViewpoint : public Viewpoint {
public:
    TimingViewpoint() : Viewpoint("timing") {}

    ViewpointReport check(const SystemModel& model) override;

    /// Build the CPU analysis model for one ECU from the mapped contracts.
    /// `speed_override` replaces the descriptor's speed factor when > 0
    /// (used by the thermal scenario to re-validate under DVFS).
    [[nodiscard]] static analysis::CpuResourceModel cpu_model(const SystemModel& model,
                                                              const EcuDescriptor& ecu,
                                                              double speed_override = 0.0);

    [[nodiscard]] static analysis::CanBusModel bus_model(const SystemModel& model,
                                                         const BusDescriptor& bus);
};

} // namespace sa::model
