#pragma once
// Capability-based access control of the microkernel-style execution domain
// (§II-B: "fine-grained access control that allows to follow the principle
// of least privilege while being dynamically configured at run time").
// The MCC configures the policy; the service registry enforces it; the
// communication monitor observes violations.

#include <cstdint>
#include <set>
#include <string>
#include <utility>

#include "sim/signal.hpp"

namespace sa::rte {

/// Access policy: (client component, service name) pairs. Default deny.
class AccessControl {
public:
    void grant(const std::string& client, const std::string& service);
    void revoke(const std::string& client, const std::string& service);
    void revoke_all(const std::string& client);

    [[nodiscard]] bool allowed(const std::string& client, const std::string& service) const;
    [[nodiscard]] std::size_t rule_count() const noexcept { return rules_.size(); }

    /// Emitted on every denied check: (client, service).
    sim::Signal<const std::string&, const std::string&>& denied() noexcept { return denied_; }

    void clear() noexcept { rules_.clear(); }

private:
    std::set<std::pair<std::string, std::string>> rules_;
    mutable sim::Signal<const std::string&, const std::string&> denied_;
};

} // namespace sa::rte
