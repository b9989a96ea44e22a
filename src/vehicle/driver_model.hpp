#pragma once
// Driver / HMI model: produces intent samples (set-speed requests, takeover
// readiness) at a configurable period; an HMI fault silences the stream.
// Nothing in the library wires it to a monitor or to the ACC graph's
// "estimate driver intent" skill, whose `hmi` source keeps its default level.

#include <functional>

#include "sim/simulator.hpp"

namespace sa::vehicle {

struct DriverIntent {
    double requested_speed_mps = 30.0;
    bool takeover_ready = true;
};

class DriverModel {
public:
    DriverModel(sim::Simulator& simulator, sim::Duration sample_period = sim::Duration::ms(100))
        : simulator_(simulator), period_(sample_period) {}

    /// Start producing intent samples through the given callback.
    void start(std::function<void(const DriverIntent&)> on_sample);
    void stop();

    void set_requested_speed(double mps) noexcept { intent_.requested_speed_mps = mps; }
    void set_takeover_ready(bool ready) noexcept { intent_.takeover_ready = ready; }

    /// Simulate an HMI failure: samples stop flowing.
    void set_hmi_failed(bool failed) noexcept { hmi_failed_ = failed; }
    [[nodiscard]] bool hmi_failed() const noexcept { return hmi_failed_; }

    [[nodiscard]] const DriverIntent& intent() const noexcept { return intent_; }

private:
    sim::Simulator& simulator_;
    sim::Duration period_;
    DriverIntent intent_;
    bool hmi_failed_ = false;
    std::uint64_t periodic_id_ = 0;
};

} // namespace sa::vehicle
