#include "platoon/platoon.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/string_util.hpp"

namespace sa::platoon {

namespace {

/// Reputation a candidate needs to be admitted.
constexpr double kTrustThreshold = 0.55;
/// Byzantine members the agreement tolerates (clamped to what the admitted
/// population supports).
constexpr int kAssumedFaults = 1;
/// The agreement rounds stop once the honest spread is below this.
constexpr double kConsensusEpsilon = 0.1;
/// The agreed speed is safe when it exceeds the slowest member's safe speed
/// by no more than this.
constexpr double kSafetyToleranceMps = 0.5;

} // namespace

double safe_speed_for_quality(double quality, double nominal_mps) {
    quality = std::clamp(quality, 0.0, 1.0);
    return std::max(2.0, nominal_mps * (0.25 + 0.75 * quality));
}

PlatoonAgreement PlatoonCoordinator::form(const std::vector<MemberCapability>& candidates,
                                          RandomEngine& rng) const {
    PlatoonAgreement agreement;

    // Trust gating: only admit members we trust.
    std::vector<const MemberCapability*> admitted;
    for (const auto& c : candidates) {
        if (trust_.trusted(c.id, kTrustThreshold)) {
            admitted.push_back(&c);
            agreement.members.push_back(c.id);
        }
    }
    if (admitted.size() < 2) {
        agreement.rejected_reason = "fewer than two trusted members";
        return agreement;
    }

    // Partition into honest proposals and byzantine behaviours. Trust gating
    // is imperfect: byzantine members with good reputations still get in —
    // that is exactly what the consensus must tolerate.
    std::vector<double> honest_speeds;
    std::vector<double> honest_gaps;
    std::size_t byz_count = 0;
    for (const auto* m : admitted) {
        if (m->byzantine) {
            ++byz_count;
        } else {
            honest_speeds.push_back(m->safe_speed_mps);
            honest_gaps.push_back(m->min_gap_m);
        }
    }
    if (honest_speeds.empty()) {
        agreement.rejected_reason = "no honest members";
        return agreement;
    }

    const double lo_speed =
        *std::min_element(honest_speeds.begin(), honest_speeds.end());
    const double hi_speed =
        *std::max_element(honest_speeds.begin(), honest_speeds.end());

    // Byzantine strategy: equivocate wildly around the honest range to pull
    // receivers apart (worst case for convergence).
    std::vector<ByzantineBehavior> byz_speed;
    std::vector<ByzantineBehavior> byz_gap;
    for (std::size_t i = 0; i < byz_count; ++i) {
        const double low = lo_speed - 20.0;
        const double high = hi_speed + 40.0;
        byz_speed.push_back([low, high](int round, std::size_t receiver) {
            return (receiver + static_cast<std::size_t>(round)) % 2 == 0 ? high : low;
        });
        byz_gap.push_back([](int round, std::size_t receiver) {
            return (receiver + static_cast<std::size_t>(round)) % 2 == 0 ? 0.5 : 80.0;
        });
    }
    (void)rng;

    ConsensusConfig cc;
    // Clamp f to what the admitted population supports: approximate
    // agreement under equivocation needs n >= 3f + 1. Small platoons cannot
    // tolerate byzantine members at all — the consensus then fails safe
    // (no convergence => no platoon) rather than agreeing on a poisoned value.
    const int max_f = (static_cast<int>(admitted.size()) - 1) / 3;
    cc.assumed_faults = std::min(kAssumedFaults, max_f);
    cc.epsilon = kConsensusEpsilon;
    ApproximateAgreement protocol(cc);

    agreement.speed_consensus = protocol.run(honest_speeds, byz_speed);
    agreement.gap_consensus = protocol.run(honest_gaps, byz_gap);
    agreement.formed =
        agreement.speed_consensus.converged && agreement.gap_consensus.converged;
    if (!agreement.formed) {
        agreement.rejected_reason = "consensus did not converge";
        return agreement;
    }

    // The agreed speed must respect the slowest member: cap at the minimum
    // honest proposal (validity already bounds it; the cap makes it exact).
    agreement.common_speed_mps =
        std::min(agreement.speed_consensus.agreed_value, lo_speed);
    // The agreed gap must respect the largest requirement among honest
    // members: take the max of the consensus value and the honest max.
    const double hi_gap = *std::max_element(honest_gaps.begin(), honest_gaps.end());
    agreement.min_gap_m = std::max(agreement.gap_consensus.agreed_value, hi_gap);
    agreement.speed_safe =
        agreement.common_speed_mps <= lo_speed + kSafetyToleranceMps;
    return agreement;
}

// --- maneuvers ---------------------------------------------------------------------

const char* to_string(ManeuverKind kind) noexcept {
    switch (kind) {
    case ManeuverKind::Form: return "form";
    case ManeuverKind::Join: return "join";
    case ManeuverKind::Leave: return "leave";
    case ManeuverKind::Split: return "split";
    case ManeuverKind::Dissolve: return "dissolve";
    }
    return "?";
}

std::string ManeuverRecord::str() const {
    std::string out = format("%s(%s)%s%s", to_string(kind), subject.c_str(),
                             succeeded ? "" : " FAILED",
                             reason.empty() ? "" : (": " + reason).c_str());
    out += " members=[";
    for (std::size_t i = 0; i < members_after.size(); ++i) {
        out += (i ? " " : "") + members_after[i];
    }
    out += "]";
    if (!detached.empty()) {
        out += " detached=[";
        for (std::size_t i = 0; i < detached.size(); ++i) {
            out += (i ? " " : "") + detached[i];
        }
        out += "]";
    }
    return out;
}

std::vector<std::string> Platoon::member_names() const {
    std::vector<std::string> out;
    out.reserve(members_.size());
    for (const auto& m : members_) {
        out.push_back(m.id);
    }
    return out;
}

bool Platoon::contains(const std::string& name) const {
    return std::any_of(members_.begin(), members_.end(),
                       [&](const MemberCapability& m) { return m.id == name; });
}

const std::string& Platoon::leader() const {
    SA_REQUIRE(formed() && !members_.empty(), "platoon '" + id_ + "' is not formed");
    return members_.front().id;
}

void Platoon::record(ManeuverRecord r) {
    history_.push_back(r);
    // Emit the local copy, not history_.back(): a subscriber may trigger a
    // follow-up maneuver whose push_back reallocates history_ mid-emit.
    maneuver_performed_.emit(r);
}

bool Platoon::adopt(std::vector<MemberCapability> members, RandomEngine& rng,
                    PlatoonAgreement& out) {
    PlatoonCoordinator coordinator(trust_);
    out = coordinator.form(members, rng);
    if (!out.formed) {
        return false;
    }
    // Keep the admitted members only (trust gating may have dropped some),
    // preserving convoy order.
    std::vector<MemberCapability> admitted;
    for (const auto& m : members) {
        if (std::find(out.members.begin(), out.members.end(), m.id) !=
            out.members.end()) {
            admitted.push_back(m);
        }
    }
    agreement_ = out;
    members_ = std::move(admitted);
    return true;
}

const PlatoonAgreement& Platoon::form(const std::vector<MemberCapability>& candidates,
                                      RandomEngine& rng) {
    PlatoonAgreement attempt;
    const bool ok = adopt(candidates, rng, attempt);
    if (!ok) {
        agreement_ = attempt;
        members_.clear();
    }
    ManeuverRecord r;
    r.kind = ManeuverKind::Form;
    r.reason = ok ? "" : attempt.rejected_reason;
    r.succeeded = ok;
    r.members_after = member_names();
    record(std::move(r));
    return agreement_;
}

const PlatoonAgreement& Platoon::join(const MemberCapability& candidate,
                                      RandomEngine& rng, std::string reason) {
    ManeuverRecord r;
    r.kind = ManeuverKind::Join;
    r.subject = candidate.id;
    r.reason = std::move(reason);
    if (!formed() || contains(candidate.id) ||
        !trust_.trusted(candidate.id, kTrustThreshold)) {
        r.succeeded = false;
        if (!formed()) {
            r.reason = "platoon not formed";
        } else if (contains(candidate.id)) {
            r.reason = "already a member";
        } else {
            r.reason = "candidate not trusted";
        }
        r.members_after = member_names();
        record(std::move(r));
        return agreement_;
    }
    std::vector<MemberCapability> next = members_;
    next.push_back(candidate);
    PlatoonAgreement attempt;
    const bool ok = adopt(std::move(next), rng, attempt) && contains(candidate.id);
    r.succeeded = ok;
    if (!ok && !attempt.formed) {
        r.reason = attempt.rejected_reason; // platoon unchanged
    }
    r.members_after = member_names();
    record(std::move(r));
    return agreement_;
}

const PlatoonAgreement& Platoon::leave(const std::string& name, RandomEngine& rng,
                                       std::string reason) {
    ManeuverRecord r;
    r.kind = ManeuverKind::Leave;
    r.subject = name;
    r.reason = std::move(reason);
    if (!contains(name)) {
        r.succeeded = false;
        r.reason = "not a member";
        r.members_after = member_names();
        record(std::move(r));
        return agreement_;
    }
    std::vector<MemberCapability> rest;
    for (const auto& m : members_) {
        if (m.id != name) {
            rest.push_back(m);
        }
    }
    if (rest.size() < 2) {
        // A one-vehicle platoon is no platoon: dissolve.
        members_.clear();
        agreement_ = PlatoonAgreement{};
        agreement_.rejected_reason = "dissolved: fewer than two members left";
        r.members_after = member_names();
        record(std::move(r));
        ManeuverRecord d;
        d.kind = ManeuverKind::Dissolve;
        d.reason = "fewer than two members left";
        record(std::move(d));
        return agreement_;
    }
    PlatoonAgreement attempt;
    const bool ok = adopt(std::move(rest), rng, attempt);
    if (!ok) {
        // The remaining members could not re-agree: the platoon dissolves
        // (fail safe) rather than drive on a stale agreement.
        members_.clear();
        agreement_ = attempt;
    }
    r.members_after = member_names();
    record(std::move(r));
    if (!ok) {
        ManeuverRecord d;
        d.kind = ManeuverKind::Dissolve;
        d.reason = "re-agreement failed: " + attempt.rejected_reason;
        record(std::move(d));
    }
    return agreement_;
}

std::vector<MemberCapability> Platoon::split(const std::string& at, RandomEngine& rng,
                                             std::string reason) {
    ManeuverRecord r;
    r.kind = ManeuverKind::Split;
    r.subject = at;
    r.reason = std::move(reason);
    const auto it = std::find_if(members_.begin(), members_.end(),
                                 [&](const MemberCapability& m) { return m.id == at; });
    if (it == members_.end()) {
        r.succeeded = false;
        r.reason = "not a member";
        r.members_after = member_names();
        record(std::move(r));
        return {};
    }
    std::vector<MemberCapability> tail(it, members_.end());
    std::vector<MemberCapability> head(members_.begin(), it);
    for (const auto& m : tail) {
        r.detached.push_back(m.id);
    }
    if (head.size() < 2) {
        // Splitting at the leader (or its immediate follower) leaves no
        // platoon at the head: dissolve.
        members_.clear();
        agreement_ = PlatoonAgreement{};
        agreement_.rejected_reason = "dissolved by split at " + at;
        r.members_after = member_names();
        record(std::move(r));
        ManeuverRecord d;
        d.kind = ManeuverKind::Dissolve;
        d.reason = "split at " + at + " left no head platoon";
        record(std::move(d));
        return tail;
    }
    PlatoonAgreement attempt;
    const bool ok = adopt(std::move(head), rng, attempt);
    if (!ok) {
        members_.clear();
        agreement_ = attempt;
    }
    r.members_after = member_names();
    record(std::move(r));
    if (!ok) {
        ManeuverRecord d;
        d.kind = ManeuverKind::Dissolve;
        d.reason = "head re-agreement failed: " + attempt.rejected_reason;
        record(std::move(d));
    }
    return tail;
}

} // namespace sa::platoon
