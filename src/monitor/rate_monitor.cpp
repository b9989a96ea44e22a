#include "monitor/rate_monitor.hpp"

#include "monitor/anomaly_kinds.hpp"

#include "util/string_util.hpp"

namespace sa::monitor {

namespace {

/// Denied session opens before an "access_probe" anomaly is raised.
constexpr std::uint32_t kDeniedOpenThreshold = 3;

} // namespace

RateMonitor::RateMonitor(sim::Simulator& simulator, rte::ServiceRegistry& services,
                         sim::Duration window)
    : Monitor(simulator, "rate:ids", Domain::Security), services_(services), window_(window) {
    msg_subscription_ = services_.message_sent().subscribe(
        [this](const rte::Message& msg) { on_message(msg); });
    denied_subscription_ = services_.session_denied().subscribe(
        [this](const std::string& client, const std::string& service) {
            on_denied(client, service);
        });
}

RateMonitor::~RateMonitor() {
    stop();
    services_.message_sent().unsubscribe(msg_subscription_);
    services_.session_denied().unsubscribe(denied_subscription_);
}

void RateMonitor::set_rate_bound(const std::string& client, const std::string& service,
                                 double max_per_s) {
    bounds_[{client, service}] = max_per_s;
}

void RateMonitor::start() {
    if (started_) {
        return;
    }
    started_ = true;
    periodic_id_ = simulator_.schedule_periodic(window_, [this] { evaluate_window(); });
}

void RateMonitor::stop() {
    if (!started_) {
        return;
    }
    started_ = false;
    simulator_.cancel_periodic(periodic_id_);
    periodic_id_ = 0;
}

void RateMonitor::on_message(const rte::Message& msg) {
    ++window_counts_[{msg.sender, msg.service}];
}

void RateMonitor::on_denied(const std::string& client, const std::string& service) {
    note_check();
    auto& n = denied_counts_[{client, service}];
    ++n;
    if (n == kDeniedOpenThreshold) {
        raise(Severity::Critical, client, kinds::kAccessProbe,
              sa::format("%u denied opens of %s", n, service.c_str()),
              static_cast<double>(n));
    }
}

void RateMonitor::evaluate_window() {
    note_check();
    const double window_s = window_.to_seconds();
    for (auto& [key, count] : window_counts_) {
        const double rate = static_cast<double>(count) / window_s;
        count = 0;

        double bound = default_bound_;
        if (auto it = bounds_.find(key); it != bounds_.end()) {
            bound = it->second;
        }
        if (bound <= 0.0) {
            continue;
        }
        bool& alarmed = alarmed_[key];
        if (rate > bound && !alarmed) {
            alarmed = true;
            raise(Severity::Critical, key.first, kinds::kRateExcess,
                  sa::format("%s -> %s at %.0f msg/s (bound %.0f)", key.first.c_str(),
                             key.second.c_str(), rate, bound),
                  rate / bound);
        } else if (rate <= bound && alarmed) {
            alarmed = false;
            raise(Severity::Info, key.first, kinds::kRateRecovered,
                  sa::format("%s -> %s at %.0f msg/s", key.first.c_str(),
                             key.second.c_str(), rate),
                  0.0);
        }
    }
}

} // namespace sa::monitor
