// Tests for platooning: trust management, byzantine-tolerant approximate
// agreement (validity/convergence properties, parameterized over n and f),
// and trust-gated platoon formation (§V fog scenario).

#include <gtest/gtest.h>

#include "platoon/consensus.hpp"
#include "platoon/platoon.hpp"
#include "platoon/trust.hpp"
#include "util/assert.hpp"

namespace {

using namespace sa;
using namespace sa::platoon;

// --- Trust -------------------------------------------------------------------------

TEST(Trust, StartsNeutral) {
    TrustManager trust;
    EXPECT_DOUBLE_EQ(trust.trust("stranger"), 0.5);
    EXPECT_FALSE(trust.trusted("stranger", 0.6));
}

TEST(Trust, GrowsWithPositiveInteractions) {
    TrustManager trust;
    for (int i = 0; i < 10; ++i) {
        trust.record("good_peer", true);
    }
    EXPECT_NEAR(trust.trust("good_peer"), 11.0 / 12.0, 1e-9);
    EXPECT_TRUE(trust.trusted("good_peer"));
}

TEST(Trust, DropsWithNegativeInteractions) {
    TrustManager trust;
    for (int i = 0; i < 10; ++i) {
        trust.record("liar", false);
    }
    EXPECT_NEAR(trust.trust("liar"), 1.0 / 12.0, 1e-9);
    EXPECT_FALSE(trust.trusted("liar"));
}

TEST(Trust, MixedHistoryBalanced) {
    TrustManager trust;
    for (int i = 0; i < 20; ++i) {
        trust.record("so_so", i % 2 == 0);
    }
    EXPECT_NEAR(trust.trust("so_so"), 0.5, 0.05);
    EXPECT_EQ(trust.interactions("so_so"), 20u);
    EXPECT_EQ(trust.known_peers().size(), 1u);
}

// --- Trimmed mean --------------------------------------------------------------------

TEST(TrimmedMean, DropsExtremes) {
    EXPECT_DOUBLE_EQ(ApproximateAgreement::trimmed_mean({1, 100, 2, 3, -50}, 1),
                     2.0); // mean of {1, 2, 3}
}

TEST(TrimmedMean, ZeroFaultsIsPlainMean) {
    EXPECT_DOUBLE_EQ(ApproximateAgreement::trimmed_mean({1, 2, 3}, 0), 2.0);
}

TEST(TrimmedMean, RequiresEnoughValues) {
    EXPECT_THROW((void)ApproximateAgreement::trimmed_mean({1, 2}, 1), ContractViolation);
}

// --- Approximate agreement -----------------------------------------------------------

TEST(Consensus, HonestOnlyConvergesImmediately) {
    ConsensusConfig cfg;
    cfg.assumed_faults = 0;
    cfg.epsilon = 0.01;
    ApproximateAgreement protocol(cfg);
    const auto result = protocol.run({20.0, 22.0, 24.0}, {});
    EXPECT_TRUE(result.converged);
    EXPECT_EQ(result.rounds, 1); // identical received sets -> instant agreement
    EXPECT_TRUE(result.validity_held);
    EXPECT_NEAR(result.agreed_value, 22.0, 1e-9);
}

TEST(Consensus, EquivocatingByzantineTolerated) {
    ConsensusConfig cfg;
    cfg.assumed_faults = 1;
    cfg.epsilon = 0.1;
    ApproximateAgreement protocol(cfg);
    // 4 honest + 1 byzantine (n=5 >= 3f+1=4).
    ByzantineBehavior byz = [](int round, std::size_t receiver) {
        return (receiver + static_cast<std::size_t>(round)) % 2 == 0 ? 1000.0 : -1000.0;
    };
    const auto result = protocol.run({20.0, 21.0, 22.0, 23.0}, {byz});
    EXPECT_TRUE(result.converged);
    EXPECT_TRUE(result.validity_held);
    EXPECT_GE(result.agreed_value, 20.0);
    EXPECT_LE(result.agreed_value, 23.0);
}

TEST(Consensus, ValidityHeldEvenWhenNotConverged) {
    ConsensusConfig cfg;
    cfg.assumed_faults = 1;
    cfg.epsilon = 1e-12; // unreachable within max_rounds
    cfg.max_rounds = 3;
    ApproximateAgreement protocol(cfg);
    ByzantineBehavior byz = [](int, std::size_t r) { return r % 2 ? 1e6 : -1e6; };
    const auto result = protocol.run({10.0, 12.0, 14.0, 16.0}, {byz});
    EXPECT_TRUE(result.validity_held);
    for (double v : result.final_values) {
        EXPECT_GE(v, 10.0);
        EXPECT_LE(v, 16.0);
    }
}

TEST(Consensus, PlainMeanCorruptedByByzantine) {
    // The ablation argument: without trimming, one byzantine value drags the
    // mean far outside the honest range.
    std::vector<double> values{20.0, 21.0, 22.0, 1000.0};
    EXPECT_GT(ApproximateAgreement::plain_mean(values), 200.0);
    EXPECT_LE(ApproximateAgreement::trimmed_mean(values, 1), 22.0);
}

/// Parameterized sweep: n honest x f byzantine (n >= 3f + 1 - f honest...,
/// here: honest >= 2f + 1 so trimming leaves a majority of honest values).
class ConsensusSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ConsensusSweep, ConvergesWithValidity) {
    const auto [honest_n, f] = GetParam();
    if (honest_n < 2 * f + 1) {
        GTEST_SKIP() << "insufficient honest majority";
    }
    ConsensusConfig cfg;
    cfg.assumed_faults = f;
    cfg.epsilon = 0.05;
    cfg.max_rounds = 60;
    ApproximateAgreement protocol(cfg);

    RandomEngine rng(static_cast<std::uint64_t>(honest_n * 31 + f));
    std::vector<double> honest;
    for (int i = 0; i < honest_n; ++i) {
        honest.push_back(rng.uniform(15.0, 30.0));
    }
    std::vector<ByzantineBehavior> byz;
    for (int i = 0; i < f; ++i) {
        byz.push_back([i](int round, std::size_t receiver) {
            const bool flip = (receiver + static_cast<std::size_t>(round + i)) % 2 == 0;
            return flip ? 500.0 : -500.0;
        });
    }
    const auto result = protocol.run(honest, byz);
    EXPECT_TRUE(result.converged) << "n=" << honest_n << " f=" << f;
    EXPECT_TRUE(result.validity_held);
    EXPECT_LT(result.spread, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ConsensusSweep,
                         ::testing::Combine(::testing::Values(3, 5, 7, 9, 15),
                                            ::testing::Values(0, 1, 2, 3)));

// --- Safe speed heuristic ---------------------------------------------------------------

TEST(SafeSpeed, ScalesWithQuality) {
    EXPECT_NEAR(safe_speed_for_quality(1.0), 33.0, 1e-9);
    EXPECT_NEAR(safe_speed_for_quality(0.0), 33.0 * 0.25, 1e-9);
    EXPECT_GT(safe_speed_for_quality(0.8), safe_speed_for_quality(0.3));
    EXPECT_GE(safe_speed_for_quality(0.0), 2.0); // floor
}

// --- Platoon formation --------------------------------------------------------------------

struct PlatoonRig {
    TrustManager trust;
    RandomEngine rng{17};

    void make_trusted(const std::string& id) {
        for (int i = 0; i < 10; ++i) {
            trust.record(id, true);
        }
    }
    void make_untrusted(const std::string& id) {
        for (int i = 0; i < 10; ++i) {
            trust.record(id, false);
        }
    }
};

TEST(Platoon, FormsWithTrustedMembers) {
    PlatoonRig rig;
    rig.make_trusted("alice");
    rig.make_trusted("bob");
    rig.make_trusted("carol");
    PlatoonCoordinator coordinator(rig.trust);
    const std::vector<MemberCapability> members = {
        {"alice", 0.9, 28.0, 10.0, false},
        {"bob", 0.7, 24.0, 12.0, false},
        {"carol", 0.5, 20.0, 15.0, false},
    };
    const auto agreement = coordinator.form(members, rig.rng);
    ASSERT_TRUE(agreement.formed) << agreement.rejected_reason;
    EXPECT_EQ(agreement.members.size(), 3u);
    // Common speed respects the slowest member.
    EXPECT_LE(agreement.common_speed_mps, 20.0 + 0.5);
    EXPECT_TRUE(agreement.speed_safe);
    // Gap respects the largest requirement.
    EXPECT_GE(agreement.min_gap_m, 15.0);
}

TEST(Platoon, UntrustedMemberExcluded) {
    PlatoonRig rig;
    rig.make_trusted("alice");
    rig.make_trusted("bob");
    rig.make_untrusted("mallory");
    PlatoonCoordinator coordinator(rig.trust);
    const std::vector<MemberCapability> members = {
        {"alice", 0.9, 28.0, 10.0, false},
        {"bob", 0.7, 24.0, 12.0, false},
        {"mallory", 0.9, 99.0, 1.0, true},
    };
    const auto agreement = coordinator.form(members, rig.rng);
    ASSERT_TRUE(agreement.formed);
    EXPECT_EQ(agreement.members.size(), 2u);
    EXPECT_EQ(std::find(agreement.members.begin(), agreement.members.end(), "mallory"),
              agreement.members.end());
}

TEST(Platoon, ByzantineInsiderCannotInflateSpeed) {
    // A byzantine member with good reputation slips through trust gating;
    // the consensus still keeps the agreed speed within the honest range.
    PlatoonRig rig;
    for (const char* id : {"alice", "bob", "carol", "dave", "mallory"}) {
        rig.make_trusted(id);
    }
    PlatoonCoordinator coordinator(rig.trust); // tolerates one byzantine member
    const std::vector<MemberCapability> members = {
        {"alice", 0.9, 26.0, 10.0, false},
        {"bob", 0.8, 25.0, 11.0, false},
        {"carol", 0.7, 23.0, 12.0, false},
        {"dave", 0.7, 24.0, 12.0, false},
        {"mallory", 0.9, 0.0, 0.0, true},
    };
    const auto agreement = coordinator.form(members, rig.rng);
    ASSERT_TRUE(agreement.formed) << agreement.rejected_reason;
    EXPECT_TRUE(agreement.speed_safe);
    EXPECT_LE(agreement.common_speed_mps, 23.0 + 0.5);
    EXPECT_GE(agreement.common_speed_mps, 2.0);
}

TEST(Platoon, TooFewTrustedMembersRejected) {
    PlatoonRig rig;
    rig.make_trusted("alone");
    rig.make_untrusted("shady");
    PlatoonCoordinator coordinator(rig.trust);
    const std::vector<MemberCapability> members = {
        {"alone", 0.9, 25.0, 10.0, false},
        {"shady", 0.9, 25.0, 10.0, false},
    };
    const auto agreement = coordinator.form(members, rig.rng);
    EXPECT_FALSE(agreement.formed);
    EXPECT_FALSE(agreement.rejected_reason.empty());
}

TEST(Platoon, FogScenarioDegradedVehicleBenefits) {
    // §V: a camera-only vehicle blinded by fog joins a radar-equipped
    // platoon. Its own safe speed would be walking pace; the platoon speed
    // (bounded by the slowest member) is far better than going alone.
    PlatoonRig rig;
    for (const char* id : {"fogbound", "radar_a", "radar_b"}) {
        rig.make_trusted(id);
    }
    const double alone = safe_speed_for_quality(0.08); // blinded camera
    // Three members tolerate no byzantine one: the agreement runs with f = 0.
    PlatoonCoordinator coordinator(rig.trust);
    const std::vector<MemberCapability> members = {
        {"fogbound", 0.08, 18.0, 14.0, false}, // safe *inside* a platoon
        {"radar_a", 0.85, 24.0, 10.0, false},
        {"radar_b", 0.80, 23.0, 10.0, false},
    };
    const auto agreement = coordinator.form(members, rig.rng);
    ASSERT_TRUE(agreement.formed);
    EXPECT_GT(agreement.common_speed_mps, alone);
}

// --- Maneuvers: join / leave / split ------------------------------------------------

struct ManeuverRig : PlatoonRig {
    Platoon platoon{"p1", trust};

    MemberCapability member(const char* id, double safe_speed = 25.0) {
        make_trusted(id);
        return {id, 0.9, safe_speed, 10.0, false};
    }
};

TEST(PlatoonManeuvers, FormKeepsConvoyOrder) {
    ManeuverRig rig;
    const auto& agreement = rig.platoon.form(
        {rig.member("lead"), rig.member("mid"), rig.member("tail")}, rig.rng);
    ASSERT_TRUE(agreement.formed) << agreement.rejected_reason;
    EXPECT_TRUE(rig.platoon.formed());
    EXPECT_EQ(rig.platoon.member_names(),
              (std::vector<std::string>{"lead", "mid", "tail"}));
    EXPECT_EQ(rig.platoon.leader(), "lead");
    ASSERT_EQ(rig.platoon.history().size(), 1u);
    EXPECT_EQ(rig.platoon.history()[0].kind, ManeuverKind::Form);
}

TEST(PlatoonManeuvers, JoinAppendsAtTailAndReAgrees) {
    ManeuverRig rig;
    (void)rig.platoon.form({rig.member("lead", 26.0), rig.member("mid", 25.0)},
                           rig.rng);
    const double speed_before = rig.platoon.agreement().common_speed_mps;
    // The newcomer is slower: the re-run agreement must respect it.
    const auto& agreement =
        rig.platoon.join(rig.member("newcomer", 20.0), rig.rng, "fog cover");
    ASSERT_TRUE(agreement.formed);
    EXPECT_EQ(rig.platoon.member_names(),
              (std::vector<std::string>{"lead", "mid", "newcomer"}));
    EXPECT_LE(agreement.common_speed_mps, 20.0 + 0.5);
    EXPECT_LT(agreement.common_speed_mps, speed_before);
    const auto& record = rig.platoon.history().back();
    EXPECT_EQ(record.kind, ManeuverKind::Join);
    EXPECT_EQ(record.subject, "newcomer");
    EXPECT_TRUE(record.succeeded);
    EXPECT_EQ(record.reason, "fog cover");
}

TEST(PlatoonManeuvers, UntrustedJoinRefusedAndPlatoonUnchanged) {
    ManeuverRig rig;
    (void)rig.platoon.form({rig.member("lead"), rig.member("mid")}, rig.rng);
    rig.make_untrusted("mallory");
    const auto members_before = rig.platoon.member_names();
    (void)rig.platoon.join({"mallory", 0.9, 25.0, 10.0, false}, rig.rng);
    EXPECT_EQ(rig.platoon.member_names(), members_before);
    const auto& record = rig.platoon.history().back();
    EXPECT_EQ(record.kind, ManeuverKind::Join);
    EXPECT_FALSE(record.succeeded);
    EXPECT_EQ(record.reason, "candidate not trusted");
    // Double-join is also refused.
    (void)rig.platoon.join(rig.member("mid"), rig.rng);
    EXPECT_FALSE(rig.platoon.history().back().succeeded);
    EXPECT_EQ(rig.platoon.member_names(), members_before);
}

TEST(PlatoonManeuvers, LeaveRelaxesAgreementAndDissolvesBelowTwo) {
    ManeuverRig rig;
    (void)rig.platoon.form({rig.member("lead", 26.0), rig.member("slow", 18.0),
                            rig.member("tail", 25.0)},
                           rig.rng);
    ASSERT_TRUE(rig.platoon.formed());
    const double speed_before = rig.platoon.agreement().common_speed_mps;
    (void)rig.platoon.leave("slow", rig.rng, "degraded follow skill");
    EXPECT_EQ(rig.platoon.member_names(), (std::vector<std::string>{"lead", "tail"}));
    // The slow member gone, the agreement can speed up.
    EXPECT_GT(rig.platoon.agreement().common_speed_mps, speed_before);
    // One more leave dissolves the platoon entirely.
    (void)rig.platoon.leave("tail", rig.rng);
    EXPECT_FALSE(rig.platoon.formed());
    EXPECT_TRUE(rig.platoon.member_names().empty());
    EXPECT_EQ(rig.platoon.history().back().kind, ManeuverKind::Dissolve);
    // Leaving an unknown member is a recorded no-op.
    (void)rig.platoon.leave("ghost", rig.rng);
    EXPECT_FALSE(rig.platoon.history().back().succeeded);
}

TEST(PlatoonManeuvers, SplitDetachesTheTail) {
    ManeuverRig rig;
    (void)rig.platoon.form({rig.member("v1"), rig.member("v2"), rig.member("v3"),
                            rig.member("v4")},
                           rig.rng);
    const auto detached = rig.platoon.split("v3", rig.rng, "v3 follow unavailable");
    ASSERT_EQ(detached.size(), 2u);
    EXPECT_EQ(detached[0].id, "v3");
    EXPECT_EQ(detached[1].id, "v4");
    // Head platoon re-agreed among v1, v2.
    EXPECT_TRUE(rig.platoon.formed());
    EXPECT_EQ(rig.platoon.member_names(), (std::vector<std::string>{"v1", "v2"}));
    const auto& record = rig.platoon.history().back();
    EXPECT_EQ(record.kind, ManeuverKind::Split);
    EXPECT_EQ(record.detached, (std::vector<std::string>{"v3", "v4"}));
    EXPECT_EQ(record.members_after, (std::vector<std::string>{"v1", "v2"}));
}

TEST(PlatoonManeuvers, SplitAtLeaderDissolves) {
    ManeuverRig rig;
    (void)rig.platoon.form({rig.member("v1"), rig.member("v2"), rig.member("v3")},
                           rig.rng);
    const auto detached = rig.platoon.split("v1", rig.rng);
    EXPECT_EQ(detached.size(), 3u);
    EXPECT_FALSE(rig.platoon.formed());
    EXPECT_EQ(rig.platoon.history().back().kind, ManeuverKind::Dissolve);
    // Splitting on a dissolved platoon is a recorded no-op.
    const auto nothing = rig.platoon.split("v2", rig.rng);
    EXPECT_TRUE(nothing.empty());
    EXPECT_FALSE(rig.platoon.history().back().succeeded);
}

TEST(PlatoonManeuvers, ReentrantManeuverFromSignalSubscriberIsSafe) {
    // A subscriber may react to a maneuver by triggering another one on the
    // same platoon; the nested history_.push_back must not invalidate the
    // record the outer emit handed out (ASan guards the dangle).
    ManeuverRig rig;
    (void)rig.platoon.form({rig.member("a"), rig.member("b"), rig.member("c"),
                            rig.member("d")},
                           rig.rng);
    bool reacted = false;
    std::string seen_subject;
    rig.platoon.maneuver_performed().subscribe([&](const ManeuverRecord& record) {
        if (record.kind == ManeuverKind::Leave && !reacted) {
            reacted = true;
            (void)rig.platoon.leave("d", rig.rng, "follow-up");
            // The outer record must still be readable after the nested
            // maneuver grew the history.
            seen_subject = record.subject;
        }
    });
    (void)rig.platoon.leave("c", rig.rng);
    EXPECT_TRUE(reacted);
    EXPECT_EQ(seen_subject, "c");
    EXPECT_EQ(rig.platoon.member_names(), (std::vector<std::string>{"a", "b"}));
}

TEST(PlatoonManeuvers, ManeuverSignalFires) {
    ManeuverRig rig;
    std::vector<ManeuverKind> seen;
    rig.platoon.maneuver_performed().subscribe(
        [&](const ManeuverRecord& record) { seen.push_back(record.kind); });
    (void)rig.platoon.form({rig.member("a"), rig.member("b"), rig.member("c")},
                           rig.rng);
    (void)rig.platoon.leave("c", rig.rng);
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], ManeuverKind::Form);
    EXPECT_EQ(seen[1], ManeuverKind::Leave);
}

} // namespace
