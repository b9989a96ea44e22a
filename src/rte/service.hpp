#pragma once
// Micro-server service registry (§II-B: "micro servers provide services that
// can be granted to other components"). Opening a session is subject to the
// capability-based access policy; every call is observable by the
// communication monitor (rate-based IDS of [5]).

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "rte/capability.hpp"
#include "sim/simulator.hpp"

namespace sa::rte {

using sim::Duration;
using sim::Time;

struct Message {
    std::string sender;          ///< client component name
    std::string service;
    std::vector<double> values;  ///< typed payload for control data
    std::string text;            ///< free-form payload
    Time sent;
};

using SessionId = std::uint64_t;
using ServiceHandler = std::function<void(const Message&)>;

class ServiceRegistry {
public:
    ServiceRegistry(sim::Simulator& simulator, AccessControl& access);

    /// A component announces a service (micro-server endpoint).
    void provide(const std::string& provider, const std::string& service,
                 ServiceHandler handler);

    /// Remove all services of a provider (component stopped / contained).
    void withdraw_all(const std::string& provider);

    /// Open a session; returns nullopt when the access policy denies it or
    /// the service does not exist.
    [[nodiscard]] std::optional<SessionId> open(const std::string& client,
                                                const std::string& service);

    /// Send a message through an open session. Delivery is asynchronous,
    /// kIpcLatency later. Returns false for unknown sessions.
    bool call(SessionId session, std::vector<double> values, std::string text = {});

    [[nodiscard]] bool has_service(const std::string& service) const;

    // Observability.
    sim::Signal<const Message&>& message_sent() noexcept { return message_sent_; }
    sim::Signal<const std::string&, const std::string&>& session_denied() noexcept {
        return session_denied_;
    }
    [[nodiscard]] std::uint64_t calls() const noexcept { return calls_; }
    [[nodiscard]] std::uint64_t denied_opens() const noexcept { return denied_opens_; }

private:
    /// Delay from call() to the provider's handler.
    static constexpr Duration kIpcLatency = Duration::us(5);

    struct ServiceEntry {
        std::string provider;
        ServiceHandler handler;
        bool active = true;
    };
    struct SessionEntry {
        std::string client;
        std::string service;
    };

    sim::Simulator& simulator_;
    AccessControl& access_;
    std::map<std::string, ServiceEntry> services_;
    std::map<SessionId, SessionEntry> sessions_;
    SessionId next_session_ = 1;
    std::uint64_t calls_ = 0;
    std::uint64_t denied_opens_ = 0;
    sim::Signal<const Message&> message_sent_;
    sim::Signal<const std::string&, const std::string&> session_denied_;
};

} // namespace sa::rte
