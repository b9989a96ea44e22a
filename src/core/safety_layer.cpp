#include "core/safety_layer.hpp"

#include "monitor/anomaly_kinds.hpp"

namespace sa::core {

namespace kinds = sa::monitor::kinds;

SafetyLayer::SafetyLayer(rte::Rte& rte, model::Mcc& mcc)
    : Layer(LayerId::Safety), rte_(rte), mcc_(mcc) {}

std::string SafetyLayer::find_partner(const std::string& component) const {
    const auto& functions = mcc_.functions();
    const model::Contract* c = functions.find(component);
    // Either direction of the redundancy declaration counts.
    if (c != nullptr && c->redundant_with.has_value()) {
        const std::string& partner = *c->redundant_with;
        if (rte_.has_component(partner) &&
            rte_.component(partner).state() == rte::ComponentState::Running) {
            return partner;
        }
    }
    for (const auto& other : functions.contracts()) {
        if (other.redundant_with.has_value() && *other.redundant_with == component &&
            rte_.has_component(other.component) &&
            rte_.component(other.component).state() == rte::ComponentState::Running) {
            return other.component;
        }
    }
    return {};
}

std::vector<Proposal> SafetyLayer::propose(const Problem& problem) {
    std::vector<Proposal> out;
    const auto& a = problem.anomaly;
    const bool component_loss = a.kind == kinds::kComponentContained ||
                                a.kind == kinds::kHeartbeatLoss ||
                                a.kind == kinds::kComponentFailed;
    if (!component_loss) {
        return out;
    }
    const std::string component = a.source;

    // Option 1: redundancy takes over (anticipated safe-guard). Adequate only
    // when a running partner exists in the committed model.
    const std::string partner = find_partner(component);
    if (!partner.empty()) {
        Proposal p;
        p.layer = id();
        p.action = "activate_redundancy";
        // The action manipulates the *partner* (promotion to primary); it
        // must not collide with the containment lock on the failed component.
        p.target = partner;
        p.scope = 0.1;
        p.cost = 0.1;
        p.adequacy = 0.95;
        p.execute = [this, partner] {
            // The partner is hot stand-by: promoting it is a bookkeeping act
            // here; the redundant service is already provided.
            ++redundancy_activations_;
        };
        out.push_back(std::move(p));
    }

    // Option 2: recovery by restart — but only for *failures*; restarting a
    // contained (compromised) component would re-open the security hole, so
    // the restart proposal is inadequate for containments.
    if (rte_.has_component(component)) {
        const auto state = rte_.component(component).state();
        Proposal p;
        p.layer = id();
        p.action = "recover_restart";
        p.target = component;
        p.scope = 0.1;
        p.cost = 0.2;
        p.adequacy = (a.kind == kinds::kComponentContained ||
                      state == rte::ComponentState::Contained)
                         ? 0.05
                         : 0.75;
        p.execute = [this, component] {
            rte_.component(component).restart();
        };
        out.push_back(std::move(p));
    }

    return out;
}

double SafetyLayer::health() const {
    // Fraction of safety-critical (ASIL >= C) components still running.
    auto& rte = const_cast<rte::Rte&>(rte_);
    std::size_t critical = 0;
    std::size_t running = 0;
    for (const auto& c : mcc_.functions().contracts()) {
        if (c.asil < model::Asil::C) {
            continue;
        }
        ++critical;
        if (rte.has_component(c.component) &&
            rte.component(c.component).state() == rte::ComponentState::Running) {
            ++running;
        }
    }
    return critical == 0 ? 1.0
                         : static_cast<double>(running) / static_cast<double>(critical);
}

} // namespace sa::core
