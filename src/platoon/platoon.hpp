#pragma once
// Platoon formation and operation (§V: "driving in dense fog with
// inappropriate or broken sensors will not be possible by a single
// autonomous vehicle. Nevertheless, building a platoon with better equipped
// vehicles could still be a viable option, which, however, raises the issue
// of trustworthiness"). A degraded vehicle may join a platoon whose leader
// it trusts; the platoon agrees on a common velocity and minimum gap via
// byzantine-tolerant approximate agreement over per-member safe proposals.

#include <optional>
#include <string>
#include <vector>

#include "platoon/consensus.hpp"
#include "platoon/trust.hpp"
#include "sim/signal.hpp"
#include "sim/time.hpp"
#include "vehicle/sensor.hpp"
#include "vehicle/weather.hpp"

namespace sa::platoon {

struct MemberCapability {
    std::string id;
    /// Best sensor quality among the member's environment sensors in the
    /// current weather (drives its safe speed).
    double sensor_quality = 1.0;
    /// Maximum speed the member considers safe under current conditions.
    double safe_speed_mps = 30.0;
    /// Minimum gap the member needs (degraded braking => larger).
    double min_gap_m = 10.0;
    bool byzantine = false; ///< ground truth, for experiments only
};

/// Safe-speed heuristic: scale a nominal speed by sensor quality, floored so
/// a blind vehicle proposes walking pace rather than zero.
[[nodiscard]] double safe_speed_for_quality(double quality, double nominal_mps = 33.0);

struct PlatoonAgreement {
    bool formed = false;
    std::string rejected_reason;
    std::vector<std::string> members; ///< admitted members
    double common_speed_mps = 0.0;
    double min_gap_m = 0.0;
    ConsensusResult speed_consensus;
    ConsensusResult gap_consensus;
    /// Safety check: agreed speed must not exceed the slowest honest
    /// member's safe speed by more than the tolerance.
    bool speed_safe = true;
};

struct PlatoonConfig {
    double trust_threshold = 0.55;
    int assumed_faults = 1;
    double consensus_epsilon = 0.1;
    double safety_tolerance_mps = 0.5;
};

class PlatoonCoordinator {
public:
    PlatoonCoordinator(TrustManager& trust, PlatoonConfig config = {})
        : trust_(trust), config_(config) {}

    /// Form a platoon from candidates: untrusted members are rejected, then
    /// the admitted members agree on common speed and gap. Byzantine members
    /// that slipped through trust gating participate adversarially in the
    /// consensus (equivocating around the honest range).
    [[nodiscard]] PlatoonAgreement form(const std::vector<MemberCapability>& candidates,
                                        RandomEngine& rng) const;

private:
    TrustManager& trust_;
    PlatoonConfig config_;
};

// --- maneuvers ---------------------------------------------------------------------
// A formed platoon is not static: members join at the tail, leave when their
// own self-model says following is no longer safe, and a severely degraded
// member in the middle forces a *split* — the vehicles behind it cannot
// safely follow through it, so they detach as a trailing group. Every
// maneuver re-runs the byzantine-tolerant agreement over the remaining
// members: a leave can relax the common speed, a join can tighten it.

enum class ManeuverKind { Form, Join, Leave, Split, Dissolve };

const char* to_string(ManeuverKind kind) noexcept;

/// One executed (or refused) maneuver, for audits and determinism tests.
struct ManeuverRecord {
    ManeuverKind kind = ManeuverKind::Form;
    std::string subject; ///< vehicle the maneuver is about (empty for Form)
    std::string reason;
    bool succeeded = true;
    std::vector<std::string> members_after; ///< this platoon, after the maneuver
    std::vector<std::string> detached;      ///< Split: the detached trailing group

    [[nodiscard]] std::string str() const;
};

/// Thresholds driving automatic maneuvers from ability-graph levels (the
/// scenario layer's maneuver engine evaluates these at script barriers).
struct ManeuverPolicy {
    /// Root skill watched on every member (and candidate) vehicle.
    std::string follow_skill = "platoon_follow";
    /// A member whose follow skill drops below this leaves the platoon.
    double leave_below = 0.5;
    /// A *mid-platoon* member below this forces a split at its position
    /// (the vehicles behind cannot safely follow through it).
    double split_below = 0.15;
    /// A non-member candidate below this (but still at or above
    /// leave_below — a vehicle too degraded to *stay* is not re-admitted,
    /// which is the hysteresis that prevents leave/re-join oscillation)
    /// asks to join: degraded alone, safer in the platoon. 0.0 never joins.
    double join_below = 0.0;
    /// Evaluation period of the maneuver engine.
    sim::Duration check_period = sim::Duration::ms(500);
};

/// A formed platoon with its ordered members (leader first) and maneuver
/// history. Maneuvers re-run the trust-gated byzantine agreement via a
/// PlatoonCoordinator over the shared TrustManager.
class Platoon {
public:
    Platoon(std::string id, TrustManager& trust, PlatoonConfig config = {})
        : id_(std::move(id)), trust_(trust), config_(config) {}

    [[nodiscard]] const std::string& platoon_id() const noexcept { return id_; }
    [[nodiscard]] bool formed() const noexcept { return agreement_.formed; }
    [[nodiscard]] const PlatoonAgreement& agreement() const noexcept {
        return agreement_;
    }
    /// Members in convoy order, leader first. Non-empty only while formed.
    [[nodiscard]] const std::vector<MemberCapability>& members() const noexcept {
        return members_;
    }
    [[nodiscard]] std::vector<std::string> member_names() const;
    [[nodiscard]] bool contains(const std::string& name) const;
    /// Leader = front member. Requires formed().
    [[nodiscard]] const std::string& leader() const;

    /// Form from ordered candidates (trust-gated; see PlatoonCoordinator).
    /// Admitted members keep candidate order. Replaces any previous state.
    const PlatoonAgreement& form(const std::vector<MemberCapability>& candidates,
                                 RandomEngine& rng);

    /// Admit `candidate` at the tail: trust gate, then re-run the agreement
    /// over members + candidate. On failure the platoon is unchanged.
    const PlatoonAgreement& join(const MemberCapability& candidate, RandomEngine& rng,
                                 std::string reason = {});

    /// Remove `name` and re-run the agreement over the rest. Fewer than two
    /// remaining members dissolve the platoon. Unknown names are a no-op
    /// recorded as a failed maneuver.
    const PlatoonAgreement& leave(const std::string& name, RandomEngine& rng,
                                  std::string reason = {});

    /// Split at member `at`: `at` and everyone behind it detach (returned in
    /// convoy order, for the caller to regroup); the head re-runs its
    /// agreement. Splitting at the leader dissolves the whole platoon.
    std::vector<MemberCapability> split(const std::string& at, RandomEngine& rng,
                                        std::string reason = {});

    /// Refresh a member's capability (degraded sensors => lower safe speed)
    /// and re-run the agreement so the common speed respects it.
    const PlatoonAgreement& update_member(const MemberCapability& capability,
                                          RandomEngine& rng);

    [[nodiscard]] const std::vector<ManeuverRecord>& history() const noexcept {
        return history_;
    }
    sim::Signal<const ManeuverRecord&>& maneuver_performed() noexcept {
        return maneuver_performed_;
    }

private:
    /// Re-run the agreement over `members`; on success adopt them.
    bool adopt(std::vector<MemberCapability> members, RandomEngine& rng,
               PlatoonAgreement& out);
    void record(ManeuverRecord record);

    std::string id_;
    TrustManager& trust_;
    PlatoonConfig config_;
    PlatoonAgreement agreement_;
    std::vector<MemberCapability> members_;
    std::vector<ManeuverRecord> history_;
    sim::Signal<const ManeuverRecord&> maneuver_performed_;
};

} // namespace sa::platoon
