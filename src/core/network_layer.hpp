#pragma once
// Network/security layer: containment of compromised components (§V's
// worked example — "the only viable option for the system is often to shut
// down the affected component"). Follows the containment principle: revoke
// the offending access first (smallest scope); contain the whole component
// if the anomaly is critical. Containment produces a follow-up problem
// ("component_contained") so the safety/ability layers can reassess — the
// two "fundamentally different ways" of §V.

#include "core/layer.hpp"
#include "rte/rte.hpp"

namespace sa::core {

class NetworkLayer : public Layer {
public:
    explicit NetworkLayer(rte::Rte& rte);

    std::vector<Proposal> propose(const Problem& problem) override;
    [[nodiscard]] double health() const override;

    [[nodiscard]] std::uint64_t containments() const noexcept { return containments_; }

private:
    rte::Rte& rte_;
    std::uint64_t containments_ = 0;
};

} // namespace sa::core
