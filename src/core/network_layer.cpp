#include "core/network_layer.hpp"

#include "monitor/anomaly_kinds.hpp"

namespace sa::core {

namespace kinds = sa::monitor::kinds;

NetworkLayer::NetworkLayer(rte::Rte& rte) : Layer(LayerId::Network), rte_(rte) {}

std::vector<Proposal> NetworkLayer::propose(const Problem& problem) {
    std::vector<Proposal> out;
    const auto& a = problem.anomaly;
    if (a.kind != kinds::kRateExcess && a.kind != kinds::kAccessProbe) {
        return out;
    }
    const std::string component = a.source; // IDS names the offending client
    if (!rte_.has_component(component)) {
        return out;
    }

    // Option 1 (smallest scope): revoke the abused access only. Adequate for
    // probing, weak against a component that is already inside (it may abuse
    // other granted services).
    {
        Proposal p;
        p.layer = id();
        p.action = "revoke_access";
        p.target = component + "/access";
        p.scope = 0.05;
        p.cost = 0.05;
        p.adequacy = a.kind == kinds::kAccessProbe ? 0.85 : 0.35;
        p.execute = [this, component] {
            rte_.access().revoke_all(component);
        };
        out.push_back(std::move(p));
    }

    // Option 2: contain the component — stop its tasks, withdraw services.
    // Scope includes every dependent of its services; the follow-up problem
    // lets the upper layers deal with exactly that loss.
    {
        Proposal p;
        p.layer = id();
        p.action = "contain_component";
        p.target = component;
        p.scope = 0.25;
        p.cost = 0.4;
        p.adequacy = a.severity == monitor::Severity::Critical ? 0.95 : 0.6;
        p.execute = [this, component] {
            rte_.component(component).contain();
            rte_.access().revoke_all(component);
            ++containments_;
        };
        p.follow_up = monitor::Anomaly{a.at,
                                       monitor::Domain::Function,
                                       monitor::Severity::Critical,
                                       component,
                                       kinds::kComponentContained,
                                       "security containment removed " + component,
                                       1.0};
        out.push_back(std::move(p));
    }
    return out;
}

double NetworkLayer::health() const {
    // Health: fraction of components not compromised/contained.
    std::size_t total = 0;
    std::size_t bad = 0;
    rte_.for_each_component([&total, &bad](const rte::Component& component) {
        ++total;
        const auto state = component.state();
        if (state == rte::ComponentState::Compromised ||
            state == rte::ComponentState::Contained) {
            ++bad;
        }
    });
    if (total == 0) {
        return 1.0;
    }
    return 1.0 - static_cast<double>(bad) / static_cast<double>(total);
}

} // namespace sa::core
