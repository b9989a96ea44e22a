#pragma once
// Platform layer: reacts to hardware/software-platform anomalies. Its key
// move is DVFS (§V: temperature "may ... require voltage or frequency
// scaling to prevent permanent damage. This alone, however, does not fully
// contain the fault as the deteriorated hardware performance can still
// cause deadline misses") — therefore every throttling proposal is checked
// against the MCC's timing model first; if the configuration would become
// unschedulable at the lower speed, the platform layer lowers its adequacy
// and the problem escalates.

#include "core/layer.hpp"
#include "model/mcc.hpp"
#include "rte/rte.hpp"

namespace sa::core {

class PlatformLayer : public Layer {
public:
    PlatformLayer(rte::Rte& rte, model::Mcc& mcc);

    std::vector<Proposal> propose(const Problem& problem) override;
    [[nodiscard]] double health() const override;

    [[nodiscard]] std::uint64_t dvfs_actions() const noexcept { return dvfs_actions_; }

private:
    /// "temp.<ecu>" anomaly sources name the ECU.
    [[nodiscard]] std::string ecu_from_source(const std::string& source) const;

    rte::Rte& rte_;
    model::Mcc& mcc_;
    std::uint64_t dvfs_actions_ = 0;
};

} // namespace sa::core
