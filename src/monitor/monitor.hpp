#pragma once
// Monitor base class. Concrete monitors observe one aspect of the running
// system ("execution times, access patterns, or sensor values", §II-B),
// detect deviations from the modelled behaviour and raise anomalies.

#include <cstdint>
#include <string>

#include "monitor/metric.hpp"
#include "sim/signal.hpp"
#include "sim/simulator.hpp"

namespace sa::monitor {

class Monitor {
public:
    Monitor(sim::Simulator& simulator, std::string name, Domain domain)
        : simulator_(simulator), name_(std::move(name)), domain_(domain) {}
    virtual ~Monitor() = default;

    Monitor(const Monitor&) = delete;
    Monitor& operator=(const Monitor&) = delete;

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] Domain domain() const noexcept { return domain_; }

    /// Emitted whenever this monitor detects a deviation.
    sim::Signal<const Anomaly&>& anomaly() noexcept { return anomaly_; }

    [[nodiscard]] std::uint64_t checks() const noexcept { return checks_; }
    [[nodiscard]] std::uint64_t anomalies_raised() const noexcept { return raised_; }

protected:
    void note_check() noexcept { ++checks_; }

    void raise(Severity severity, const std::string& source, const std::string& kind,
               const std::string& detail, double magnitude) {
        Anomaly a;
        a.at = simulator_.now();
        a.domain = domain_;
        a.severity = severity;
        a.source = source;
        a.kind = kind;
        a.detail = detail;
        a.magnitude = magnitude;
        ++raised_;
        anomaly_.emit(a);
    }

    sim::Simulator& simulator_;

private:
    std::string name_;
    Domain domain_;
    sim::Signal<const Anomaly&> anomaly_;
    std::uint64_t checks_ = 0;
    std::uint64_t raised_ = 0;
};

} // namespace sa::monitor
