#include "rte/capability.hpp"

namespace sa::rte {

void AccessControl::grant(const std::string& client, const std::string& service) {
    rules_.insert({client, service});
}

void AccessControl::revoke_all(const std::string& client) {
    for (auto it = rules_.begin(); it != rules_.end();) {
        if (it->first == client) {
            it = rules_.erase(it);
        } else {
            ++it;
        }
    }
}

bool AccessControl::allowed(const std::string& client, const std::string& service) const {
    const bool ok = rules_.contains({client, service});
    if (!ok) {
        denied_.emit(client, service);
    }
    return ok;
}

} // namespace sa::rte
