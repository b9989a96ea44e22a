#pragma once
// Trust management for cooperating vehicles (§V: "any reaction it takes
// might require cooperation with others and even delegation, raising issues
// of trust and self-protection against other malicious neighbors").
// Beta-reputation: trust = (positive + 1) / (interactions + 2), i.e. a
// Laplace-smoothed success ratio starting at 0.5 for strangers.
//
// Trust can be earned over the V2V mesh (§V: cooperating vehicles "share
// information", but "the communication to or the platform of another vehicle
// might not be fully trustworthy"): a PlausibilityChecker compares a
// neighbour's claims against the receiver's own sensor observations and
// feeds the outcome into the TrustManager. No scenario wires it today: the
// reputation that gates platoon formation is seeded by
// ScenarioBuilder::trust() in every preset and example, and the checker
// runs only in tests (ROADMAP direction 4).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mesh/medium.hpp"

namespace sa::platoon {

class TrustManager {
public:
    /// Record an interaction outcome with a peer (e.g. its broadcast matched
    /// our own observation).
    void record(const std::string& peer, bool positive);

    /// Current trust in [0, 1]; unknown peers score 0.5.
    [[nodiscard]] double trust(const std::string& peer) const;

    [[nodiscard]] bool trusted(const std::string& peer, double threshold = 0.6) const {
        return trust(peer) >= threshold;
    }

    [[nodiscard]] std::uint64_t interactions(const std::string& peer) const;
    [[nodiscard]] std::vector<std::string> known_peers() const;

private:
    struct Record {
        std::uint64_t positive = 0;
        std::uint64_t total = 0;
    };
    std::map<std::string, Record> records_;
};

/// Compares a neighbour's claimed kinematics against own observations and
/// records the outcome as a trust interaction.
class PlausibilityChecker {
public:
    PlausibilityChecker(TrustManager& trust, double position_tolerance_m = 5.0,
                        double speed_tolerance_mps = 2.0)
        : trust_(trust),
          position_tolerance_m_(position_tolerance_m),
          speed_tolerance_mps_(speed_tolerance_mps) {}

    /// Check a CAM frame against an own measurement of its ORIGIN (e.g. from
    /// radar): measured position/speed of the vehicle the frame claims to
    /// be. Trust accrues to the origin, not the relaying transmitter — a
    /// relay faithfully forwarding a liar's claim is not the liar. Records
    /// positive/negative trust and returns plausibility.
    bool check(const v2v::Frame& frame, double measured_position_m,
               double measured_speed_mps);

    [[nodiscard]] std::uint64_t implausible() const noexcept { return implausible_; }

private:
    TrustManager& trust_;
    double position_tolerance_m_;
    double speed_tolerance_mps_;
    std::uint64_t implausible_ = 0;
};

} // namespace sa::platoon
