#pragma once
// Boundary-check monitor for scalar system states — the "state of the art"
// baseline the paper mentions (tire pressure, battery charge; RACE's
// "boundary checks for the respective sensors"). Generic over named signals.

#include <map>
#include <string>

#include "monitor/monitor.hpp"

namespace sa::monitor {

class RangeMonitor : public Monitor {
public:
    RangeMonitor(sim::Simulator& simulator, std::string name,
                 Domain domain = Domain::Sensor);

    /// Configure bounds for a signal. Violations raise "range_violation".
    void set_bounds(const std::string& signal, double lo, double hi,
                    Severity severity = Severity::Warning);

    /// Feed a sample; returns true if within bounds (or unconfigured).
    bool sample(const std::string& signal, double value);

    [[nodiscard]] std::uint64_t violations() const noexcept { return violations_; }

private:
    struct Bounds {
        double lo;
        double hi;
        Severity severity;
        bool in_violation = false;
    };
    std::map<std::string, Bounds> bounds_;
    std::uint64_t violations_ = 0;
};

} // namespace sa::monitor
