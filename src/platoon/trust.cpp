#include "platoon/trust.hpp"

#include <cmath>

namespace sa::platoon {

void TrustManager::record(const std::string& peer, bool positive) {
    auto& r = records_[peer];
    ++r.total;
    if (positive) {
        ++r.positive;
    }
}

double TrustManager::trust(const std::string& peer) const {
    auto it = records_.find(peer);
    if (it == records_.end()) {
        return 0.5;
    }
    const auto& r = it->second;
    return (static_cast<double>(r.positive) + 1.0) / (static_cast<double>(r.total) + 2.0);
}

std::uint64_t TrustManager::interactions(const std::string& peer) const {
    auto it = records_.find(peer);
    return it == records_.end() ? 0 : it->second.total;
}

std::vector<std::string> TrustManager::known_peers() const {
    std::vector<std::string> out;
    out.reserve(records_.size());
    for (const auto& [peer, _] : records_) {
        out.push_back(peer);
    }
    return out;
}

bool PlausibilityChecker::check(const v2v::Frame& frame,
                                double measured_position_m,
                                double measured_speed_mps) {
    ++checks_;
    const bool position_ok =
        std::abs(frame.position_m - measured_position_m) <= position_tolerance_m_;
    const bool speed_ok =
        std::abs(frame.speed_mps - measured_speed_mps) <= speed_tolerance_mps_;
    const bool plausible = position_ok && speed_ok;
    if (!plausible) {
        ++implausible_;
    }
    trust_.record(frame.origin, plausible);
    return plausible;
}

} // namespace sa::platoon
