#include "can/bus.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/log.hpp"

namespace sa::can {

namespace {
/// CSMA/CR outcome between two candidate frames: true if `a` beats `b`.
/// The lowest base identifier wins (dominant bits win on the wire); extended
/// frames lose against a standard frame with the same base id (SRR/IDE are
/// recessive).
bool frame_wins(const CanFrame& a, const CanFrame& b) noexcept {
    const std::uint32_t base_a = a.extended ? (a.id >> 18) : a.id;
    const std::uint32_t base_b = b.extended ? (b.id >> 18) : b.id;
    if (base_a != base_b) {
        return base_a < base_b;
    }
    if (a.extended != b.extended) {
        return !a.extended;
    }
    return a.id < b.id;
}
} // namespace

CanBus::CanBus(sim::Simulator& simulator, std::int64_t bitrate_bps)
    : simulator_(simulator), bitrate_bps_(bitrate_bps) {
    SA_REQUIRE(bitrate_bps_ > 0, "bitrate must be positive");
}

void CanBus::attach(CanControllerBase& controller) {
    SA_REQUIRE(std::find_if(arb_.begin(), arb_.end(),
                            [&](const ArbEntry& e) { return e.controller == &controller; }) ==
                   arb_.end(),
               "controller already attached");
    arb_.push_back(ArbEntry{&controller, std::nullopt, true});
}

void CanBus::detach(CanControllerBase& controller) {
    arb_.erase(std::remove_if(arb_.begin(), arb_.end(),
                              [&](const ArbEntry& e) { return e.controller == &controller; }),
               arb_.end());
    ++detach_epoch_; // invalidates any in-flight delivery snapshot
}

bool CanBus::is_attached(const CanControllerBase* controller) const noexcept {
    for (const auto& e : arb_) {
        if (e.controller == controller) {
            return true;
        }
    }
    return false;
}

void CanBus::set_bitrate(std::int64_t bps) {
    SA_REQUIRE(bps > 0, "bitrate must be positive");
    bitrate_bps_ = bps;
}

void CanBus::set_bit_error_rate(double p) {
    SA_REQUIRE(p >= 0.0 && p <= 1.0, "bit_error_rate must be a probability");
    bit_error_rate_ = p;
}

void CanBus::mark_stale(CanControllerBase* controller) noexcept {
    for (auto& e : arb_) {
        if (e.controller == controller) {
            e.stale = true;
            return;
        }
    }
}

void CanBus::notify_tx_pending(CanControllerBase& controller) {
    mark_stale(&controller);
    if (!transmitting_) {
        try_start_transmission();
    }
}

void CanBus::try_start_transmission() {
    SA_ASSERT(!transmitting_, "arbitration while bus is busy");

    // One arbitration pass over the cached controller heads. Only entries a
    // controller invalidated (via notify_tx_pending, or by winning the
    // previous round) are re-polled; everything else arbitrates from cache.
    ArbEntry* winner = nullptr;
    for (auto& e : arb_) {
        if (e.stale) {
            e.head = e.controller->peek_tx();
            e.stale = false;
            ++polls_;
        }
        if (!e.head.has_value()) {
            continue;
        }
        SA_ASSERT(e.head->valid(), "controller offered an invalid frame");
        if (winner == nullptr || frame_wins(*e.head, *winner->head)) {
            winner = &e;
        }
    }
    if (winner == nullptr) {
        return; // bus stays idle
    }
    ++arb_rounds_;
    transmitting_ = true;
    tx_controller_ = winner->controller;
    tx_frame_ = *winner->head;
    tx_controller_->tx_started(tx_frame_);

    const std::int64_t bits = frame_exact_bits(tx_frame_) + kInterframeSpaceBits;
    const Duration tx_time = Duration(bits * 1'000'000'000LL / bitrate_bps_);
    busy_ns_ += tx_time.count_ns();

    tx_corrupted_ = bit_error_rate_ > 0.0 && simulator_.rng().chance(bit_error_rate_);

    simulator_.schedule(tx_time, [this] { finish_transmission(); });
}

void CanBus::finish_transmission() {
    transmitting_ = false;
    CanControllerBase* winner = tx_controller_;
    tx_controller_ = nullptr;
    // Copy out of the in-flight members: an RX callback below may send
    // synchronously, re-entering try_start_transmission and overwriting
    // tx_frame_/tx_corrupted_ while this frame is still being delivered.
    const CanFrame frame = tx_frame_;
    const bool corrupted = tx_corrupted_;
    // The transmitter may have been destroyed (detaching itself) while its
    // frame was on the wire; only touch it if it is still attached.
    const bool winner_attached = is_attached(winner);
    if (winner_attached) {
        // The winner's queue advances whether the frame completed or
        // aborted; its cached head is stale either way.
        mark_stale(winner);
    }
    if (corrupted) {
        // Error frame: all nodes discard; the transmitter retries via the
        // next arbitration round.
        ++frames_err_;
        if (winner_attached) {
            winner->tx_aborted(frame);
        }
    } else {
        ++frames_tx_;
        frame_completed_.emit(frame, simulator_.now());
        // Completion order: the transmitter is told first (it frees its
        // mailbox), then every controller attached at completion time sees
        // the frame. Deliver from a snapshot so an RX callback that
        // attaches/detaches controllers cannot skip or double-deliver. The
        // per-controller attachment re-check (pointers may be dead after a
        // detach) is skipped in the common case via the detach epoch.
        if (winner_attached) {
            winner->tx_done(frame, simulator_.now());
        }
        rx_scratch_.clear();
        rx_scratch_.reserve(arb_.size()); // no-op after the first delivery
        for (const auto& e : arb_) {
            rx_scratch_.push_back(e.controller);
        }
        const std::uint64_t epoch_at_snapshot = detach_epoch_;
        for (CanControllerBase* c : rx_scratch_) {
            if (detach_epoch_ == epoch_at_snapshot || is_attached(c)) {
                c->rx_frame(frame, simulator_.now());
            }
        }
    }
    // An RX callback may already have kicked off the next transmission
    // synchronously (echo patterns); only arbitrate if still idle.
    if (!transmitting_) {
        try_start_transmission();
    }
}

double CanBus::busy_fraction(Time horizon) const {
    if (horizon.ns() <= 0) {
        return 0.0;
    }
    return static_cast<double>(busy_ns_) / static_cast<double>(horizon.ns());
}

} // namespace sa::can
