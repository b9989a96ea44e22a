#pragma once
// Safety layer: treats component losses "as a component failure on the
// safety layer, where this effect must have been anticipated as part of the
// safety design. For instance, a safe-guard such as a redundancy concept is
// in place ... Also, recovery mechanisms such as restarting the service with
// a different software setup may count as a countermeasure" (§V).
//
// Proposals consult the MCC's model: redundancy activation is only adequate
// when the committed function model actually declares a surviving partner.

#include "core/layer.hpp"
#include "model/mcc.hpp"
#include "rte/rte.hpp"

namespace sa::core {

class SafetyLayer : public Layer {
public:
    SafetyLayer(rte::Rte& rte, model::Mcc& mcc);

    std::vector<Proposal> propose(const Problem& problem) override;
    [[nodiscard]] double health() const override;

    [[nodiscard]] std::uint64_t redundancy_activations() const noexcept {
        return redundancy_activations_;
    }

private:
    /// Surviving redundancy partner of `component`, or empty.
    [[nodiscard]] std::string find_partner(const std::string& component) const;

    rte::Rte& rte_;
    model::Mcc& mcc_;
    std::uint64_t redundancy_activations_ = 0;
};

} // namespace sa::core
