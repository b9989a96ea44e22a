#include "rte/service.hpp"

#include "util/assert.hpp"

namespace sa::rte {

ServiceRegistry::ServiceRegistry(sim::Simulator& simulator, AccessControl& access)
    : simulator_(simulator), access_(access) {}

void ServiceRegistry::provide(const std::string& provider, const std::string& service,
                              ServiceHandler handler) {
    SA_REQUIRE(static_cast<bool>(handler), "service needs a handler: " + service);
    SA_REQUIRE(!services_.contains(service) || !services_.at(service).active,
               "service already provided: " + service);
    services_[service] = ServiceEntry{provider, std::move(handler), true};
}

void ServiceRegistry::withdraw_all(const std::string& provider) {
    for (auto& [name, entry] : services_) {
        if (entry.provider == provider) {
            entry.active = false;
        }
    }
}

std::optional<SessionId> ServiceRegistry::open(const std::string& client,
                                               const std::string& service) {
    auto it = services_.find(service);
    if (it == services_.end() || !it->second.active) {
        return std::nullopt;
    }
    if (!access_.allowed(client, service)) {
        ++denied_opens_;
        session_denied_.emit(client, service);
        return std::nullopt;
    }
    const SessionId id = next_session_++;
    sessions_[id] = SessionEntry{client, service};
    return id;
}

bool ServiceRegistry::call(SessionId session, std::vector<double> values, std::string text) {
    auto it = sessions_.find(session);
    if (it == sessions_.end()) {
        return false;
    }
    auto svc = services_.find(it->second.service);
    if (svc == services_.end() || !svc->second.active) {
        return false;
    }
    Message msg;
    msg.sender = it->second.client;
    msg.service = it->second.service;
    msg.values = std::move(values);
    msg.text = std::move(text);
    msg.sent = simulator_.now();
    ++calls_;
    message_sent_.emit(msg);
    // Deliver asynchronously; the handler may have been withdrawn meanwhile,
    // so re-check at delivery time (containment takes effect immediately).
    const std::string service_name = it->second.service;
    simulator_.schedule(kIpcLatency, [this, msg = std::move(msg), service_name] {
        auto entry = services_.find(service_name);
        if (entry != services_.end() && entry->second.active) {
            entry->second.handler(msg);
        }
    });
    return true;
}

bool ServiceRegistry::has_service(const std::string& service) const {
    auto it = services_.find(service);
    return it != services_.end() && it->second.active;
}

} // namespace sa::rte
