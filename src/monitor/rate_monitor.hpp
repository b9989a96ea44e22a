#pragma once
// Communication-rate monitor: the intrusion-detection building block of §V
// ("By monitoring communication behavior, the system itself is capable of
// detecting components or subsystems affected by a security leak"), following
// the distributed access-control framework of Hamad et al. [5]. It watches
// the service registry's message stream and per-(client,service) rates; a
// rate above the contracted bound or repeated denied opens raise Security
// anomalies naming the offending component.

#include <map>
#include <string>
#include <utility>

#include "monitor/monitor.hpp"
#include "rte/service.hpp"

namespace sa::monitor {

class RateMonitor : public Monitor {
public:
    RateMonitor(sim::Simulator& simulator, rte::ServiceRegistry& services,
                sim::Duration window = sim::Duration::ms(100));
    ~RateMonitor() override;

    /// Contracted maximum calls per second for (client, service). Flows from
    /// the component's contract via the MCC.
    void set_rate_bound(const std::string& client, const std::string& service,
                        double max_per_s);

    /// Default bound applied to unlisted pairs (0 = unlimited).
    void set_default_bound(double max_per_s) noexcept { default_bound_ = max_per_s; }

    void start();
    void stop();

private:
    using Key = std::pair<std::string, std::string>;

    void on_message(const rte::Message& msg);
    void on_denied(const std::string& client, const std::string& service);
    void evaluate_window();

    rte::ServiceRegistry& services_;
    sim::Duration window_;
    std::map<Key, double> bounds_;
    std::map<Key, std::uint64_t> window_counts_;
    std::map<Key, bool> alarmed_;
    std::map<Key, std::uint32_t> denied_counts_;
    double default_bound_ = 0.0;
    bool started_ = false;
    std::uint64_t periodic_id_ = 0;
    std::uint64_t msg_subscription_ = 0;
    std::uint64_t denied_subscription_ = 0;
};

} // namespace sa::monitor
