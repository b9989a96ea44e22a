#pragma once
// Latency viewpoint: checks the contracts' end-to-end latency requirements
// (`max_e2e_latency`) against the composed worst case of the component's
// local producer chain — every task of the component (on its mapped ECU)
// followed by every message it transmits (on the mapped bus, with one
// message period of asynchronous sampling delay each).
//
// This is the chain-latency acceptance test of §II-A layered on top of the
// per-resource WCRT analyses; richer cross-component chains compose the same
// machinery via analysis::ChainLatencyAnalysis directly.

#include "analysis/chain_latency.hpp"
#include "model/timing_viewpoint.hpp"
#include "model/viewpoint.hpp"

namespace sa::model {

class LatencyViewpoint : public Viewpoint {
public:
    LatencyViewpoint() : Viewpoint("latency") {}

    ViewpointReport check(const SystemModel& model) override;
};

} // namespace sa::model
