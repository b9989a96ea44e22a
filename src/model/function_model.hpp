#pragma once
// Function model: the platform-independent logical architecture — the set of
// component contracts plus the communication channels derivable from their
// provides/requires declarations (§II-A: "a logical or functional system
// architecture in a platform-independent way").

#include <optional>
#include <string>
#include <vector>

#include "model/contract.hpp"

namespace sa::model {

/// A logical channel: client component -> service (owned by some provider).
struct Channel {
    std::string client;
    std::string service;
    std::string provider; ///< empty if unresolved
};

class FunctionModel {
public:
    FunctionModel() = default;
    explicit FunctionModel(std::vector<Contract> contracts);

    /// Add or replace (by component name) a contract.
    void upsert(Contract contract);
    void remove(const std::string& component);

    [[nodiscard]] const Contract* find(const std::string& component) const;
    [[nodiscard]] const std::vector<Contract>& contracts() const noexcept {
        return contracts_;
    }
    [[nodiscard]] bool empty() const noexcept { return contracts_.empty(); }
    [[nodiscard]] std::size_t size() const noexcept { return contracts_.size(); }

    /// Provider of a service, or empty if none/ambiguous.
    [[nodiscard]] std::string provider_of(const std::string& service) const;

    /// All resolved and unresolved channels.
    [[nodiscard]] std::vector<Channel> channels() const;

private:
    std::vector<Contract> contracts_;
};

} // namespace sa::model
