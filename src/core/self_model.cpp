#include "core/self_model.hpp"

#include <algorithm>

#include "skills/ability_graph.hpp"
#include "util/assert.hpp"
#include "util/string_util.hpp"

namespace sa::core {

double SelfSnapshot::health(LayerId layer) const {
    auto it = layer_health.find(layer);
    return it == layer_health.end() ? 1.0 : it->second;
}

std::string SelfSnapshot::str() const {
    std::string out = format("self v%llu @%s overall=%.2f",
                             static_cast<unsigned long long>(version),
                             at.str().c_str(), overall);
    for (const auto& [layer, health] : layer_health) {
        out += format(" %s=%.2f", to_string(layer), health);
    }
    if (root_ability.has_value()) {
        out += format(" ability(%s)=%.2f", root_skill.c_str(), *root_ability);
    }
    return out;
}

void SelfModel::bind_abilities(const skills::AbilityGraph& abilities,
                               std::string root_skill) {
    SA_REQUIRE(abilities.has_node(root_skill),
               "bind_abilities: unknown root skill: " + root_skill);
    abilities_ = &abilities;
    root_skill_ = std::move(root_skill);
}

const SelfSnapshot& SelfModel::capture() {
    // In place: layers are only ever added, so the health map keeps its
    // nodes and the root-skill string its buffer from one capture to the
    // next.
    SelfSnapshot& snap = latest_;
    ++snap.version;
    snap.at = simulator_.now();
    snap.overall = 1.0;
    for (int li = 0; li < kLayerCount; ++li) {
        const auto id = static_cast<LayerId>(li);
        if (!coordinator_.has_layer(id)) {
            continue;
        }
        const double h = std::clamp(coordinator_.layer(id).health(), 0.0, 1.0);
        snap.layer_health[id] = h;
        snap.overall = std::min(snap.overall, h);
    }
    snap.open_problems = coordinator_.problems_unresolved();
    if (abilities_ != nullptr) {
        snap.root_skill = root_skill_;
        snap.root_ability = abilities_->level(root_skill_);
    }
    published_.emit(snap);
    return snap;
}

void SelfModel::start(sim::Duration period) {
    if (periodic_id_ != 0) {
        return;
    }
    periodic_id_ = simulator_.schedule_periodic(period, [this] { (void)capture(); });
}

void SelfModel::stop() {
    if (periodic_id_ != 0) {
        simulator_.cancel_periodic(periodic_id_);
        periodic_id_ = 0;
    }
}

const SelfSnapshot& SelfModel::latest() const {
    SA_REQUIRE(has_snapshot(), "no snapshot captured yet");
    return latest_;
}

} // namespace sa::core
