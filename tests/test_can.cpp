// Tests for the CAN substrate: exact frame encoding (CRC-15, bit stuffing)
// against a bit-by-bit reference, the frame completion signal, bus
// arbitration, native controllers, and the virtualized controller of Fig. 2
// (PF/VF split, isolation, priority preservation, calibrated latency, FPGA
// resource break-even).

#include <gtest/gtest.h>

#include "analysis/can_wcrt.hpp"
#include "can/bus.hpp"
#include "can/controller.hpp"
#include "can/frame.hpp"
#include "can/resource_model.hpp"
#include "can/virtual_controller.hpp"
#include "util/assert.hpp"

namespace {

using namespace sa;
using namespace sa::can;
using sim::Duration;
using sim::Time;

// --- Bit-by-bit reference encoder ----------------------------------------------
// The straightforward serialisation that frame_exact_bits' table-driven
// path is checked against: one bool per bit, CRC-15 and stuffing bit by bit.

void push_bits(std::vector<bool>& bits, std::uint32_t value, int width) {
    for (int i = width - 1; i >= 0; --i) {
        bits.push_back(((value >> i) & 1u) != 0);
    }
}

/// CAN CRC-15 (polynomial x^15+x^14+x^10+x^8+x^7+x^4+x^3+1 = 0x4599) over a
/// bit sequence, as specified in ISO 11898-1.
std::uint16_t can_crc15(const std::vector<bool>& bits) {
    std::uint16_t crc = 0;
    for (const bool bit : bits) {
        const bool feedback = bit != (((crc >> 14) & 1u) != 0);
        crc = static_cast<std::uint16_t>((crc << 1) & 0x7FFF);
        if (feedback) {
            crc ^= 0x4599;
        }
    }
    return crc;
}

/// SOF, arbitration, control and data fields plus the CRC sequence: the
/// stuffable part of the frame (the CRC delimiter, ACK and EOF are not).
std::vector<bool> frame_stuffable_bits(const CanFrame& frame) {
    std::vector<bool> bits{false}; // SOF (dominant)
    if (!frame.extended) {
        push_bits(bits, frame.id, 11);
        push_bits(bits, 0, 3); // RTR (data frame), IDE (standard), r0
    } else {
        push_bits(bits, frame.id >> 18, 11); // base id
        push_bits(bits, 0b11, 2);            // SRR, IDE (extended): recessive
        push_bits(bits, frame.id & 0x3FFFF, 18);
        push_bits(bits, 0, 3); // RTR, r1, r0
    }
    push_bits(bits, frame.dlc, 4);
    for (int i = 0; i < frame.dlc; ++i) {
        push_bits(bits, frame.data[static_cast<std::size_t>(i)], 8);
    }
    push_bits(bits, can_crc15(bits), 15);
    return bits;
}

/// Stuff bits the transmitter inserts: after 5 equal bits it sends their
/// complement, which takes part in the following stuffing decisions.
int count_stuff_bits(const std::vector<bool>& bits) {
    if (bits.empty()) {
        return 0;
    }
    int stuffed = 0;
    int run = 1;
    bool last = bits[0];
    for (std::size_t i = 1; i < bits.size(); ++i) {
        const bool bit = bits[i];
        if (bit != last) {
            last = bit;
            run = 1;
        } else if (++run == 5) {
            ++stuffed;
            last = !bit; // the stuffed complement starts a new run of 1
            run = 1;
        }
    }
    return stuffed;
}

std::int64_t reference_exact_bits(const CanFrame& frame) {
    const std::vector<bool> bits = frame_stuffable_bits(frame);
    return static_cast<std::int64_t>(bits.size()) + count_stuff_bits(bits) + kFrameTrailerBits;
}

// --- Frame encoding -----------------------------------------------------------

TEST(CanFrame, MakeValidates) {
    const auto f = CanFrame::make(0x123, {1, 2, 3});
    EXPECT_EQ(f.id, 0x123u);
    EXPECT_EQ(f.dlc, 3);
    EXPECT_TRUE(f.valid());
    EXPECT_THROW(CanFrame::make(0x800, {}), ContractViolation); // > 11 bits
    EXPECT_THROW(CanFrame::make(0x20000000, {}, true), ContractViolation);
    EXPECT_THROW(CanFrame::make(1, std::vector<std::uint8_t>(9)), ContractViolation);
}

TEST(CanFrame, StrIsSafeOnInvalidFrames) {
    // str() has no validity precondition — it is how bad frames are
    // described in diagnostics. An out-of-range dlc must not read or write
    // past the 8-byte payload.
    CanFrame f;
    f.id = 0x123;
    f.dlc = 40;
    const std::string s = f.str();
    EXPECT_NE(s.find("[40]"), std::string::npos);
}

TEST(CanFrame, ExtendedIdAccepted) {
    const auto f = CanFrame::make(0x1ABCDEF0, {0xFF}, true);
    EXPECT_TRUE(f.valid());
    EXPECT_TRUE(f.extended);
}

TEST(CanFrame, Crc15KnownVector) {
    // CRC of the empty sequence is 0; a single recessive bit gives the poly.
    EXPECT_EQ(can_crc15({}), 0);
    EXPECT_EQ(can_crc15({true}), 0x4599);
}

TEST(CanFrame, StuffBitsWorstCasePattern) {
    // All-zero payload maximizes runs of dominant bits -> many stuff bits.
    const auto zeros = CanFrame::make(0x000, {0, 0, 0, 0, 0, 0, 0, 0});
    const auto bits = frame_stuffable_bits(zeros);
    EXPECT_GT(count_stuff_bits(bits), 10);
}

TEST(CanFrame, AlternatingPayloadNeedsFewStuffBits) {
    const auto alt = CanFrame::make(0x2AA, {0xAA, 0x55, 0xAA, 0x55});
    const auto bits = frame_stuffable_bits(alt);
    EXPECT_LT(count_stuff_bits(bits), 6);
}

TEST(CanFrame, StuffableBitCountStandard) {
    // Standard data frame: 1 SOF + 11 id + RTR + IDE + r0 + 4 DLC + 8*dlc + 15 CRC.
    const auto f = CanFrame::make(0x7FF, {1, 2});
    EXPECT_EQ(frame_stuffable_bits(f).size(), 1u + 11 + 3 + 4 + 16 + 15);
}

TEST(CanFrame, StuffableBitCountExtended) {
    const auto f = CanFrame::make(0x1FFFFFFF, {1}, true);
    // 1 SOF + 11 base + SRR + IDE + 18 ext + RTR + r1 + r0 + 4 DLC + 8 + 15 CRC.
    EXPECT_EQ(frame_stuffable_bits(f).size(), 1u + 11 + 2 + 18 + 3 + 4 + 8 + 15);
}

/// Property: exact on-wire length never exceeds the analytical worst case
/// used by the schedulability analysis — over a randomized frame corpus.
class FrameBoundProperty : public ::testing::TestWithParam<int> {};

TEST_P(FrameBoundProperty, ExactNeverExceedsWorstCase) {
    const int dlc = GetParam();
    RandomEngine rng(static_cast<std::uint64_t>(dlc) + 77);
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<std::uint8_t> payload(static_cast<std::size_t>(dlc));
        for (auto& b : payload) {
            b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        }
        const bool extended = rng.chance(0.5);
        const std::uint32_t max_id = extended ? kMaxExtendedId : kMaxStandardId;
        const auto id = static_cast<std::uint32_t>(rng.uniform_int(0, max_id));
        const auto frame = CanFrame::make(id, payload, extended);
        const auto exact = frame_exact_bits(frame);
        const auto worst = analysis::can_frame_bits_worst_case(dlc, extended);
        EXPECT_LE(exact, worst) << frame.str();
        // And it is at least the unstuffed length.
        EXPECT_GE(exact,
                  static_cast<std::int64_t>(frame_stuffable_bits(frame).size()) +
                      kFrameTrailerBits);
    }
}

INSTANTIATE_TEST_SUITE_P(Dlc, FrameBoundProperty, ::testing::Values(0, 1, 4, 8));

TEST(CanFrame, ExactBitsMatchBitwiseReference) {
    // Seeded random frames for every dlc and both id formats, plus the
    // payloads and ids at the stuffing extremes.
    RandomEngine rng(2017);
    for (std::uint8_t dlc = 0; dlc <= 8; ++dlc) {
        for (const bool extended : {false, true}) {
            const std::uint32_t max_id = extended ? kMaxExtendedId : kMaxStandardId;
            std::vector<CanFrame> frames;
            for (const std::uint32_t id : {0u, max_id}) {
                for (const std::uint8_t fill : {0x00, 0xFF, 0xAA}) {
                    CanFrame frame;
                    frame.id = id;
                    frame.extended = extended;
                    frame.dlc = dlc;
                    for (std::size_t i = 0; i < frame.data.size(); ++i) {
                        // 0xAA alternates with 0x55 byte by byte.
                        frame.data[i] = i % 2 == 1 && fill == 0xAA ? std::uint8_t{0x55} : fill;
                    }
                    frames.push_back(frame);
                }
            }
            for (int trial = 0; trial < 2000; ++trial) {
                CanFrame frame;
                frame.id = static_cast<std::uint32_t>(rng.uniform_int(0, max_id));
                frame.extended = extended;
                frame.dlc = dlc;
                for (auto& byte : frame.data) {
                    byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
                }
                frames.push_back(frame);
            }
            for (const CanFrame& frame : frames) {
                ASSERT_EQ(frame_exact_bits(frame), reference_exact_bits(frame)) << frame.str();
            }
        }
    }
}

// --- Frame completion signal -----------------------------------------------------

TEST(CanBus, FrameCompletedFiresOncePerGoodFrame) {
    // Standard, extended, dlc-0 and corrupted frames. Each good frame is
    // reported once, at its completion time; the corrupted attempt (its
    // error frame ends at 2,116,000 ns) is not, only its retry.
    sim::Simulator sim;
    CanBus bus(sim);
    CanController front(bus);
    CanController rear(bus);
    std::string text;
    bus.frame_completed().subscribe([&text](const CanFrame& frame, Time at) {
        text += std::to_string(at.ns()) + " " + frame.str() + "\n";
    });
    front.send(CanFrame::make(0x123, {1, 2, 3, 4}));
    sim.run_for(Duration::ms(1));
    front.send(CanFrame::make(0x7FF, {}));
    rear.send(CanFrame::make(0x1ABCDEF0, {0xde, 0xad, 0x00, 0xff, 1, 2, 3, 0x10}, true));
    sim.run_for(Duration::ms(1));
    bus.set_bit_error_rate(1.0); // corrupts the frame that wins the idle bus now
    rear.send(CanFrame::make(0x5, {0xab}));
    bus.set_bit_error_rate(0.0);
    sim.run_for(Duration::ms(1));

    EXPECT_EQ(bus.frames_corrupted(), 1u);
    EXPECT_EQ(bus.frames_transmitted(), 4u);
    EXPECT_EQ(text,
              "168000 123 [4] : 1 2 3 4\n"
              "1100000 7ff [0]\n"
              "1380000 x1abcdef0 [8] : de ad 0 ff 1 2 3 10\n"
              "2232000 5 [1] : ab\n");
}

// --- Bus arbitration -------------------------------------------------------------

struct EchoRig {
    sim::Simulator sim;
    CanBus bus{sim};
};

TEST(CanBus, PriorityArbitration) {
    EchoRig rig;
    CanController a(rig.bus);
    CanController b(rig.bus);
    std::vector<std::uint32_t> order;
    CanController sink(rig.bus);
    sink.add_rx_filter(0, 0, [&](const CanFrame& f, Time) { order.push_back(f.id); });

    // The first send grabs the idle bus immediately (CAN is non-preemptive);
    // everything queued while it transmits then arbitrates by priority, so
    // 0x100 overtakes 0x200 even though 0x200 sits on another controller.
    a.send(CanFrame::make(0x300, {1}));
    a.send(CanFrame::make(0x100, {2}));
    b.send(CanFrame::make(0x200, {3}));
    rig.sim.run_until(Time(Duration::ms(10).count_ns()));

    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 0x300u); // already on the wire when the others queue
    EXPECT_EQ(order[1], 0x100u); // wins the next arbitration round
    EXPECT_EQ(order[2], 0x200u);
}

TEST(CanBus, BatchedArbitrationResolvesIdleWindowByPriority) {
    // A backlog spread across three controllers, all queued inside one bus
    // idle window (while the first frame transmits), must drain in strict
    // CAN-priority order — and the cached arbitration must not re-poll every
    // controller for every frame.
    EchoRig rig;
    CanController a(rig.bus);
    CanController b(rig.bus);
    CanController c(rig.bus);
    std::vector<std::uint32_t> order;
    CanController sink(rig.bus);
    sink.add_rx_filter(0, 0, [&](const CanFrame& f, Time) { order.push_back(f.id); });

    a.send(CanFrame::make(0x700, {1})); // grabs the idle bus (non-preemptive)
    // Queued while 0x700 is on the wire: one idle window, five frames.
    a.send(CanFrame::make(0x300, {2}));
    a.send(CanFrame::make(0x500, {3}));
    b.send(CanFrame::make(0x100, {4}));
    b.send(CanFrame::make(0x400, {5}));
    c.send(CanFrame::make(0x200, {6}));
    const std::uint64_t polls_before = rig.bus.controller_polls();
    rig.sim.run_until(Time(Duration::ms(20).count_ns()));

    ASSERT_EQ(order.size(), 6u);
    EXPECT_EQ(order[0], 0x700u);
    EXPECT_EQ(order[1], 0x100u);
    EXPECT_EQ(order[2], 0x200u);
    EXPECT_EQ(order[3], 0x300u);
    EXPECT_EQ(order[4], 0x400u);
    EXPECT_EQ(order[5], 0x500u);
    // Cache effectiveness: 6 arbitration rounds over 5 attached controllers
    // would cost 30 polls if every round re-scanned everyone; the cached
    // pass only re-polls the previous winner (plus any controller that
    // notified), so the drain stays well under the naive bound.
    const std::uint64_t polls = rig.bus.controller_polls() - polls_before;
    EXPECT_LT(polls, 6u * 5u / 2u);
}

TEST(CanBus, ArbitrationCacheRespectsLateHigherPriorityFrame) {
    // A higher-priority frame arriving mid-backlog must still overtake the
    // cached lower-priority heads at the next idle point.
    EchoRig rig;
    CanController a(rig.bus);
    CanController b(rig.bus);
    std::vector<std::uint32_t> order;
    CanController sink(rig.bus);
    sink.add_rx_filter(0, 0, [&](const CanFrame& f, Time) { order.push_back(f.id); });

    a.send(CanFrame::make(0x600, {1}));
    a.send(CanFrame::make(0x500, {2}));
    // Once the first completion is observed, b springs a dominant frame.
    bool injected = false;
    CanController observer(rig.bus);
    observer.add_rx_filter(0x600, 0x7FF, [&](const CanFrame&, Time) {
        if (!injected) {
            injected = true;
            b.send(CanFrame::make(0x050, {3}));
        }
    });
    rig.sim.run_until(Time(Duration::ms(20).count_ns()));

    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 0x600u);
    EXPECT_EQ(order[1], 0x050u); // overtakes the cached 0x500
    EXPECT_EQ(order[2], 0x500u);
}

TEST(CanBus, TransmissionTimesAreExact) {
    EchoRig rig;
    CanController a(rig.bus);
    Time rx_at;
    CanController sink(rig.bus);
    sink.add_rx_filter(0, 0, [&](const CanFrame&, Time at) { rx_at = at; });
    const auto frame = CanFrame::make(0x123, {1, 2, 3, 4, 5, 6, 7, 8});
    a.send(frame);
    rig.sim.run_until(Time(Duration::ms(5).count_ns()));
    const std::int64_t bits = frame_exact_bits(frame) + kInterframeSpaceBits;
    EXPECT_EQ(rx_at.ns(), bits * 2'000); // 2us per bit at 500 kbit/s
}

TEST(CanBus, ErrorInjectionRetransmits) {
    sim::Simulator sim;
    CanBus bus(sim);
    bus.set_bit_error_rate(0.5);
    CanController a(bus);
    int rx = 0;
    CanController sink(bus);
    sink.add_rx_filter(0, 0, [&](const CanFrame&, Time) { ++rx; });
    a.send(CanFrame::make(0x10, {9}));
    sim.run_until(Time(Duration::ms(100).count_ns()));
    EXPECT_EQ(rx, 1);                      // eventually delivered exactly once
    EXPECT_GE(bus.frames_corrupted(), 0u); // and errors were counted
    EXPECT_EQ(a.tx_count(), 1u);
}

TEST(CanBus, BusyFractionTracksLoad) {
    EchoRig rig;
    CanController a(rig.bus);
    for (int i = 0; i < 10; ++i) {
        a.send(CanFrame::make(0x100 + static_cast<std::uint32_t>(i), {1}));
    }
    rig.sim.run_until(Time(Duration::ms(50).count_ns()));
    EXPECT_GT(rig.bus.busy_fraction(rig.sim.now()), 0.0);
    EXPECT_LT(rig.bus.busy_fraction(rig.sim.now()), 1.0);
    EXPECT_EQ(rig.bus.frames_transmitted(), 10u);
}

TEST(CanBus, TransmitterDestroyedMidFlightIsSafe) {
    // A controller destroyed (detaching itself) while its frame is on the
    // wire must not be touched at completion; the frame itself still
    // completes on the bus. Validated under ASan.
    EchoRig rig;
    auto a = std::make_unique<CanController>(rig.bus);
    int rx = 0;
    CanController sink(rig.bus);
    sink.add_rx_filter(0, 0, [&](const CanFrame&, Time) { ++rx; });
    a->send(CanFrame::make(0x100, {1})); // ~250 us on the wire at 500 kbit/s
    rig.sim.schedule(Duration::us(10), [&] { a.reset(); });
    rig.sim.run_until(Time(Duration::ms(10).count_ns()));
    EXPECT_EQ(rx, 1);
    EXPECT_EQ(rig.bus.frames_transmitted(), 1u);
}

// --- Native controller ------------------------------------------------------------

TEST(CanController, TxQueueCapacityDrops) {
    EchoRig rig;
    CanController a(rig.bus, 2);
    EXPECT_TRUE(a.send(CanFrame::make(1, {})));
    EXPECT_TRUE(a.send(CanFrame::make(2, {})));
    // Queue holds 2; the first may already be on the wire, so fill up again.
    a.send(CanFrame::make(3, {}));
    a.send(CanFrame::make(4, {}));
    EXPECT_FALSE(a.send(CanFrame::make(5, {})));
    EXPECT_GE(a.tx_dropped(), 1u);
}

TEST(CanController, RxFilterMasks) {
    EchoRig rig;
    CanController a(rig.bus);
    CanController b(rig.bus);
    int motor = 0;
    int all = 0;
    b.add_rx_filter(0x100, 0x700, [&](const CanFrame&, Time) { ++motor; });
    b.add_rx_filter(0, 0, [&](const CanFrame&, Time) { ++all; });
    a.send(CanFrame::make(0x123, {}));
    a.send(CanFrame::make(0x223, {}));
    rig.sim.run_until(Time(Duration::ms(10).count_ns()));
    EXPECT_EQ(motor, 1); // 0x123 matches 0x1xx
    EXPECT_EQ(all, 1);   // 0x223 falls through to the catch-all
}

TEST(CanController, NoSelfReceptionByDefault) {
    EchoRig rig;
    CanController a(rig.bus);
    int self_rx = 0;
    a.add_rx_filter(0, 0, [&](const CanFrame&, Time) { ++self_rx; });
    a.send(CanFrame::make(0x50, {1}));
    rig.sim.run_until(Time(Duration::ms(10).count_ns()));
    EXPECT_EQ(self_rx, 0);
}

// --- Virtualized controller (Fig. 2) -----------------------------------------------

TEST(VirtualCan, PfTokenSingleOwner) {
    EchoRig rig;
    VirtualCanController vc(rig.bus);
    auto token = vc.take_pf_token();
    EXPECT_THROW((void)vc.take_pf_token(), ContractViolation);
    (void)token;
}

TEST(VirtualCan, PfManagesVfs) {
    EchoRig rig;
    VirtualCanController vc(rig.bus);
    auto token = vc.take_pf_token();
    auto& vf0 = vc.pf_create_vf(token, 4);
    auto& vf1 = vc.pf_create_vf(token, 8);
    EXPECT_EQ(vc.vf_count(), 2u);
    EXPECT_EQ(vf0.index(), 0);
    EXPECT_EQ(vf1.mailbox_count(), 8u);
    vc.pf_set_vf_mailboxes(token, 0, 16);
    EXPECT_EQ(vf0.mailbox_count(), 16u);
    vc.pf_set_bus_bitrate(token, 1'000'000);
    EXPECT_EQ(rig.bus.bitrate_bps(), 1'000'000);
}

TEST(VirtualCan, DisabledVfCannotSend) {
    EchoRig rig;
    VirtualCanController vc(rig.bus);
    auto token = vc.take_pf_token();
    auto& vf = vc.pf_create_vf(token);
    vc.pf_enable_vf(token, 0, false);
    EXPECT_FALSE(vf.send(CanFrame::make(0x100, {})));
    EXPECT_EQ(vf.tx_dropped(), 1u);
}

TEST(VirtualCan, MailboxCapacityIsolatedPerVf) {
    EchoRig rig;
    VirtualCanController vc(rig.bus);
    auto token = vc.take_pf_token();
    auto& vf0 = vc.pf_create_vf(token, 1);
    auto& vf1 = vc.pf_create_vf(token, 4);
    // Exhaust vf0's single mailbox; vf1 is unaffected (isolation).
    vf0.send(CanFrame::make(0x100, {}));
    EXPECT_FALSE(vf0.send(CanFrame::make(0x101, {})));
    EXPECT_TRUE(vf1.send(CanFrame::make(0x102, {})));
    EXPECT_TRUE(vf1.send(CanFrame::make(0x103, {})));
}

TEST(VirtualCan, CrossVfPriorityRespected) {
    // Frames from different VFs must leave in CAN-priority order, exactly
    // like the hardware arbiter of [8] ("transmitted with respect to their
    // bus priority").
    EchoRig rig;
    VirtualCanController vc(rig.bus);
    auto token = vc.take_pf_token();
    auto& vf0 = vc.pf_create_vf(token);
    auto& vf1 = vc.pf_create_vf(token);

    std::vector<std::uint32_t> order;
    CanController sink(rig.bus);
    sink.add_rx_filter(0, 0, [&](const CanFrame& f, Time) { order.push_back(f.id); });

    // vf0's 0x400 latches first and grabs the idle bus (non-preemptive);
    // afterwards vf1's 0x080 must overtake vf0's earlier-queued 0x200 —
    // the virtualization layer arbitrates across VFs by CAN priority.
    vf0.send(CanFrame::make(0x400, {1}));
    vf1.send(CanFrame::make(0x080, {2}));
    vf0.send(CanFrame::make(0x200, {3}));
    rig.sim.run_until(Time(Duration::ms(20).count_ns()));

    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 0x400u);
    EXPECT_EQ(order[1], 0x080u);
    EXPECT_EQ(order[2], 0x200u);
}

TEST(VirtualCan, RxFilteredTowardsVfs) {
    EchoRig rig;
    VirtualCanController vc(rig.bus);
    auto token = vc.take_pf_token();
    auto& vf0 = vc.pf_create_vf(token);
    auto& vf1 = vc.pf_create_vf(token);
    int rx0 = 0;
    int rx1 = 0;
    vf0.add_rx_filter(0x100, 0x700, [&](const CanFrame&, Time) { ++rx0; });
    vf1.add_rx_filter(0x200, 0x700, [&](const CanFrame&, Time) { ++rx1; });

    CanController peer(rig.bus);
    peer.send(CanFrame::make(0x110, {}));
    peer.send(CanFrame::make(0x210, {}));
    peer.send(CanFrame::make(0x310, {}));
    rig.sim.run_until(Time(Duration::ms(20).count_ns()));

    EXPECT_EQ(rx0, 1);
    EXPECT_EQ(rx1, 1);
    EXPECT_EQ(vf0.rx_count(), 1u);
    EXPECT_EQ(vf1.rx_count(), 1u);
}

TEST(VirtualCan, SendingVfDoesNotSeeOwnFrame) {
    EchoRig rig;
    VirtualCanController vc(rig.bus);
    auto token = vc.take_pf_token();
    auto& vf0 = vc.pf_create_vf(token);
    auto& vf1 = vc.pf_create_vf(token);
    int rx0 = 0;
    int rx1 = 0;
    vf0.add_rx_filter(0, 0, [&](const CanFrame&, Time) { ++rx0; });
    vf1.add_rx_filter(0, 0, [&](const CanFrame&, Time) { ++rx1; });
    vf0.send(CanFrame::make(0x123, {7}));
    rig.sim.run_until(Time(Duration::ms(20).count_ns()));
    EXPECT_EQ(rx0, 0); // own frame masked
    EXPECT_EQ(rx1, 1); // sibling VF receives (internal loopback)
}

TEST(VirtualCan, RxCallbackMayRegisterFiltersReentrantly) {
    // An RX callback that registers further filters on its own VF grows the
    // filter table while a delivery from it is executing; the delivery must
    // run from a stable copy (under ASan this test catches use-after-free
    // on reallocation).
    EchoRig rig;
    VirtualCanController vc(rig.bus);
    auto token = vc.take_pf_token();
    auto& vf0 = vc.pf_create_vf(token);
    int rx = 0;
    const std::string tag = "capture-must-survive-filter-table-reallocation";
    vf0.add_rx_filter(0, 0, [&, tag](const CanFrame&, Time) {
        for (int i = 0; i < 8; ++i) { // force filters_ to reallocate
            vf0.add_rx_filter(0x7FF, 0x7FF, [](const CanFrame&, Time) {});
        }
        if (tag == "capture-must-survive-filter-table-reallocation") {
            ++rx;
        }
    });
    CanController peer(rig.bus);
    peer.send(CanFrame::make(0x123, {1}));
    rig.sim.run_until(Time(Duration::ms(20).count_ns()));
    EXPECT_EQ(rx, 1);
}

TEST(VirtualCan, RoundTripOverheadMatchesPaperBand) {
    // Round-trip echo: native pair vs virtualized pair. The virtualized
    // round trip must add ~7-11 us (§III of the paper) across 1..8 VFs.
    for (int vfs = 1; vfs <= 8; vfs += 7) {
        // Native reference.
        sim::Simulator nsim;
        CanBus nbus(nsim);
        CanController na(nbus);
        CanController nb(nbus);
        Time n_done;
        nb.add_rx_filter(0x100, 0x7FF,
                         [&](const CanFrame&, Time) { nb.send(CanFrame::make(0x200, {1})); });
        na.add_rx_filter(0x200, 0x7FF, [&](const CanFrame&, Time at) { n_done = at; });
        na.send(CanFrame::make(0x100, {1}));
        nsim.run_until(Time(Duration::ms(50).count_ns()));
        ASSERT_GT(n_done.ns(), 0);

        // Virtualized pair with `vfs` active VFs on each side.
        sim::Simulator vsim;
        CanBus vbus(vsim);
        VirtualCanController va(vbus);
        VirtualCanController vb(vbus);
        auto ta = va.take_pf_token();
        auto tb = vb.take_pf_token();
        for (int i = 0; i < vfs; ++i) {
            va.pf_create_vf(ta);
            vb.pf_create_vf(tb);
        }
        Time v_done;
        vb.vf(0).add_rx_filter(0x100, 0x7FF, [&](const CanFrame&, Time) {
            vb.vf(0).send(CanFrame::make(0x200, {1}));
        });
        va.vf(0).add_rx_filter(0x200, 0x7FF,
                               [&](const CanFrame&, Time at) { v_done = at; });
        va.vf(0).send(CanFrame::make(0x100, {1}));
        vsim.run_until(Time(Duration::ms(50).count_ns()));
        ASSERT_GT(v_done.ns(), 0);

        const double overhead_us =
            static_cast<double>(v_done.ns() - n_done.ns()) / 1e3;
        EXPECT_GE(overhead_us, 6.5) << "vfs=" << vfs;
        EXPECT_LE(overhead_us, 11.5) << "vfs=" << vfs;
    }
}

// --- FPGA resource model ------------------------------------------------------------

TEST(ResourceModel, BreakEvenAtFourVms) {
    CanControllerResourceModel model;
    EXPECT_EQ(model.break_even_vms(), 4);
}

TEST(ResourceModel, VirtualizedScalesPerVf) {
    CanControllerResourceModel model;
    const auto v4 = model.virtualized(4);
    const auto v5 = model.virtualized(5);
    EXPECT_EQ(v5.luts - v4.luts, model.per_vf.luts);
    EXPECT_EQ(v5.ffs - v4.ffs, model.per_vf.ffs);
}

TEST(ResourceModel, StandaloneBankLinear) {
    CanControllerResourceModel model;
    EXPECT_EQ(model.standalone_bank(3).luts, 3 * model.standalone.luts);
}

TEST(ResourceModel, BreakEvenNeverWithHugePerVf) {
    CanControllerResourceModel model;
    model.per_vf = model.standalone + FpgaResources{100, 100, 0.0};
    EXPECT_EQ(model.break_even_vms(16), -1);
}

TEST(ResourceModel, CostStringRendering) {
    const FpgaResources r{100, 50, 1.5};
    EXPECT_EQ(r.str(), "100 LUT, 50 FF, 1.50 BRAM");
}

} // namespace

// --- Fault confinement (ISO 11898) appended with the error-counter feature ---

namespace {

using namespace sa;
using namespace sa::can;
using sim::Duration;
using sim::Time;

TEST(FaultConfinement, CountersDriveStates) {
    ErrorCounters ec;
    EXPECT_EQ(ec.state(), FaultConfinement::ErrorActive);
    for (int i = 0; i < 16; ++i) {
        ec.on_tx_error(); // +8 each
    }
    EXPECT_EQ(ec.tec(), 128);
    EXPECT_EQ(ec.state(), FaultConfinement::ErrorPassive);
    for (int i = 0; i < 16; ++i) {
        ec.on_tx_error();
    }
    EXPECT_EQ(ec.state(), FaultConfinement::BusOff);
    // Successes do not resurrect a bus-off node; only reset does.
    ec.on_tx_success();
    EXPECT_EQ(ec.state(), FaultConfinement::BusOff);
    ec.reset();
    EXPECT_EQ(ec.state(), FaultConfinement::ErrorActive);
}

TEST(FaultConfinement, RecSaturatesAndRecovers) {
    ErrorCounters ec;
    for (int i = 0; i < 300; ++i) {
        ec.on_rx_error();
    }
    EXPECT_EQ(ec.rec(), 255);
    EXPECT_EQ(ec.state(), FaultConfinement::ErrorPassive);
    for (int i = 0; i < 300; ++i) {
        ec.on_rx_success();
    }
    EXPECT_EQ(ec.state(), FaultConfinement::ErrorActive);
}

TEST(FaultConfinement, NoisyChannelDrivesTransmitterBusOff) {
    sim::Simulator sim(5);
    CanBus bus(sim);
    bus.set_bit_error_rate(0.9);
    CanController chatterbox(bus, 256);
    int bus_off_events = 0;
    chatterbox.bus_off().subscribe([&] { ++bus_off_events; });
    sim.schedule_periodic(Duration::ms(1), [&] {
        chatterbox.send(CanFrame::make(0x123, {1, 2, 3}));
    });
    sim.run_until(Time(Duration::sec(2).count_ns()));
    EXPECT_EQ(chatterbox.fault_state(), FaultConfinement::BusOff);
    EXPECT_EQ(bus_off_events, 1);
    // A bus-off node offers nothing to arbitration.
    EXPECT_FALSE(chatterbox.peek_tx().has_value());
}

TEST(FaultConfinement, BusOffNodeFreesTheBusForOthers) {
    sim::Simulator sim(5);
    CanBus bus(sim);
    bus.set_bit_error_rate(0.9);
    CanController victim_tx(bus, 256);
    sim.schedule_periodic(Duration::ms(1),
                          [&] { victim_tx.send(CanFrame::make(0x200, {7})); });
    sim.run_until(Time(Duration::sec(2).count_ns()));
    ASSERT_EQ(victim_tx.fault_state(), FaultConfinement::BusOff);

    // Channel heals; a healthy node can now use the bus unimpeded.
    bus.set_bit_error_rate(0.0);
    CanController healthy(bus);
    int rx = 0;
    CanController sink(bus);
    sink.add_rx_filter(0x100, 0x7FF, [&](const CanFrame&, Time) { ++rx; });
    healthy.send(CanFrame::make(0x100, {1}));
    sim.run_until(Time(Duration::sec(3).count_ns()));
    EXPECT_EQ(rx, 1);
}

TEST(FaultConfinement, RecoveryRestoresTransmission) {
    sim::Simulator sim(5);
    CanBus bus(sim);
    bus.set_bit_error_rate(0.9);
    CanController node(bus, 256);
    sim.schedule_periodic(Duration::ms(1),
                          [&] { node.send(CanFrame::make(0x123, {1})); });
    sim.run_until(Time(Duration::sec(2).count_ns()));
    ASSERT_EQ(node.fault_state(), FaultConfinement::BusOff);

    bus.set_bit_error_rate(0.0);
    node.recover_from_bus_off();
    EXPECT_EQ(node.fault_state(), FaultConfinement::ErrorActive);
    const auto before = node.tx_count();
    sim.run_until(Time(Duration::sec(3).count_ns()));
    EXPECT_GT(node.tx_count(), before);
}

} // namespace
