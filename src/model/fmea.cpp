#include "model/fmea.hpp"

#include <algorithm>

namespace sa::model {

const FmeaEntry* FmeaReport::find(const DepNodeId& failed) const {
    for (const auto& e : entries) {
        if (e.failed == failed) {
            return &e;
        }
    }
    return nullptr;
}

std::size_t FmeaReport::not_fail_operational() const {
    return static_cast<std::size_t>(
        std::count_if(entries.begin(), entries.end(),
                      [](const FmeaEntry& e) { return !e.fail_operational; }));
}

FmeaEntry FmeaEngine::analyze(const DepNodeId& failed, FailureMode mode) const {
    FmeaEntry entry;
    entry.failed = failed;
    entry.mode = mode;

    // Affected set: everything that (transitively) depends on the failed node.
    // A babbling failure additionally affects everything sharing the failed
    // node's resources (it disturbs neighbours, not only dependents).
    std::set<DepNodeId> affected = graph_.dependents_of(failed);
    if (mode == FailureMode::Babbling) {
        for (const auto& peer : graph_.successors(failed, DepEdgeKind::SharesResource)) {
            affected.insert(peer);
            for (const auto& d : graph_.dependents_of(peer)) {
                affected.insert(d);
            }
        }
        // A babbling sender also jams its bus, affecting all bus users.
        for (const auto& bus : graph_.successors(failed, DepEdgeKind::MappedTo)) {
            if (bus.kind == DepNodeKind::Bus) {
                affected.insert(bus);
                for (const auto& d : graph_.dependents_of(bus)) {
                    affected.insert(d);
                }
            }
        }
    }
    entry.affected.assign(affected.begin(), affected.end());

    // Lost components + worst ASIL.
    std::set<std::string> lost;
    if (failed.kind == DepNodeKind::Component) {
        lost.insert(failed.name);
    }
    for (const auto& node : affected) {
        if (node.kind == DepNodeKind::Component) {
            lost.insert(node.name);
        }
    }
    for (const auto& name : lost) {
        const Contract* c = functions_.find(name);
        if (c != nullptr && c->asil > entry.worst_asil) {
            entry.worst_asil = c->asil;
        }
        entry.lost_components.push_back(name);
    }

    // Mitigations: redundancy partners of lost critical components that are
    // not themselves in the affected set.
    for (const auto& name : entry.lost_components) {
        const Contract* c = functions_.find(name);
        if (c == nullptr || c->asil < Asil::C) {
            continue;
        }
        bool mitigated = false;
        // Either direction of the redundancy declaration counts.
        for (const auto& other : functions_.contracts()) {
            const bool pair =
                (c->redundant_with.has_value() && *c->redundant_with == other.component) ||
                (other.redundant_with.has_value() && *other.redundant_with == name);
            if (!pair) {
                continue;
            }
            if (!lost.contains(other.component)) {
                entry.mitigations.push_back(other.component + " covers " + name);
                mitigated = true;
            }
        }
        if (!mitigated) {
            entry.fail_operational = false;
        }
    }

    return entry;
}

FmeaReport FmeaEngine::analyze_all() const {
    FmeaReport report;
    for (const auto& node : graph_.nodes()) {
        switch (node.kind) {
        case DepNodeKind::Ecu:
        case DepNodeKind::Bus:
        case DepNodeKind::Sensor:
        case DepNodeKind::Component:
            report.entries.push_back(analyze(node, FailureMode::Loss));
            break;
        default:
            break;
        }
    }
    return report;
}

} // namespace sa::model
