#pragma once
// Discrete-event CAN bus: CSMA/CR arbitration by identifier priority,
// exact frame timing (can/frame.hpp), optional bit-error injection with
// automatic retransmission.
//
// Arbitration is *batched*: the bus keeps a per-controller cache of the
// frame each controller would send next and only re-polls a controller
// (CanControllerBase::peek_tx) when that controller signalled new TX state
// via notify_tx_pending(). Draining a backlog of k frames queued in one
// idle window therefore costs one full poll pass plus k cheap cache
// refreshes of the winners — not k full re-scans of every controller.
//
// Every completed frame fires frame_completed(), the bus's one observation
// point: the campaign runner pairs gateway latency from it, and tests
// fingerprint a bus's traffic through it. The bus itself records nothing
// per frame beyond its counters.

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "can/frame.hpp"
#include "sim/signal.hpp"
#include "sim/simulator.hpp"

namespace sa::can {

using sim::Duration;
using sim::Time;

class CanBus;

/// Interface between bus and controller. Implemented by CanController and
/// VirtualCanController.
class CanControllerBase {
public:
    virtual ~CanControllerBase() = default;

    /// The bus asks for the frame this controller would send now.
    /// Return nullopt if nothing is pending.
    ///
    /// The bus caches the answer until the controller calls
    /// CanBus::notify_tx_pending() (or one of its frames completes/aborts),
    /// so implementations must report every head-of-queue change through
    /// notify_tx_pending().
    virtual std::optional<CanFrame> peek_tx() = 0;

    /// The bus tells the controller its peeked frame won arbitration and is
    /// now on the wire (it must stay at the head of the TX selection until
    /// tx_done or tx_aborted).
    virtual void tx_started(const CanFrame& frame) { (void)frame; }

    /// Transmission was corrupted (error frame); the controller will retry
    /// via the next arbitration round.
    virtual void tx_aborted(const CanFrame& frame) { (void)frame; }

    /// The bus tells the controller its peeked frame won arbitration and
    /// transmission completed at `at`.
    virtual void tx_done(const CanFrame& frame, Time at) = 0;

    /// A frame (from any controller, including this one) completed on the
    /// bus. Controllers apply their own acceptance filtering.
    virtual void rx_frame(const CanFrame& frame, Time at) = 0;
};

class CanBus {
public:
    explicit CanBus(sim::Simulator& simulator, std::int64_t bitrate_bps = 500'000);

    void attach(CanControllerBase& controller);
    void detach(CanControllerBase& controller);

    /// A controller signals that its pending-TX head may have changed (new
    /// frame queued, queue flushed, VF enabled/disabled, bus-off recovery,
    /// ...). Invalidates the bus's cached peek for that controller and
    /// starts arbitration if the bus is idle. Idempotent.
    void notify_tx_pending(CanControllerBase& controller);

    [[nodiscard]] std::int64_t bitrate_bps() const noexcept { return bitrate_bps_; }

    void set_bitrate(std::int64_t bps);
    /// Per-frame probability of corruption (0 by default).
    void set_bit_error_rate(double p);

    // Statistics.
    [[nodiscard]] std::uint64_t frames_transmitted() const noexcept { return frames_tx_; }
    [[nodiscard]] std::uint64_t frames_corrupted() const noexcept { return frames_err_; }
    [[nodiscard]] std::uint64_t arbitration_rounds() const noexcept { return arb_rounds_; }
    /// Controller polls (peek_tx calls) actually issued; with the cached
    /// arbitration this grows much slower than arbitration_rounds *
    /// controller count under backlog.
    [[nodiscard]] std::uint64_t controller_polls() const noexcept { return polls_; }
    [[nodiscard]] double busy_fraction(Time horizon) const;

    /// Fired once per frame that completes without an error, with the
    /// completion time, before the transmitter and the receivers see it.
    /// Costs one empty-list check while nobody subscribes.
    sim::Signal<const CanFrame&, Time>& frame_completed() noexcept {
        return frame_completed_;
    }

    sim::Simulator& simulator() noexcept { return simulator_; }

private:
    /// Per-controller arbitration cache entry: the frame this controller
    /// would transmit next (refreshed only when stale).
    struct ArbEntry {
        CanControllerBase* controller;
        std::optional<CanFrame> head;
        bool stale = true;
    };

    void try_start_transmission();
    void finish_transmission();
    void mark_stale(CanControllerBase* controller) noexcept;
    [[nodiscard]] bool is_attached(const CanControllerBase* controller) const noexcept;

    sim::Simulator& simulator_;
    std::int64_t bitrate_bps_;
    double bit_error_rate_ = 0.0;
    std::vector<ArbEntry> arb_;
    bool transmitting_ = false;
    // In-flight transmission state; kept in members (one frame is on the
    // wire at a time) so the completion event captures only `this`.
    CanControllerBase* tx_controller_ = nullptr;
    CanFrame tx_frame_{};
    bool tx_corrupted_ = false;
    std::uint64_t frames_tx_ = 0;
    std::uint64_t frames_err_ = 0;
    std::uint64_t arb_rounds_ = 0;
    std::uint64_t polls_ = 0;
    std::int64_t busy_ns_ = 0;
    // Reused snapshot buffer for RX delivery (finish_transmission): safe
    // because transmissions never nest — the next finish is a future event.
    std::vector<CanControllerBase*> rx_scratch_;
    std::uint64_t detach_epoch_ = 0; ///< bumped on detach; guards snapshots
    sim::Signal<const CanFrame&, Time> frame_completed_;
};

} // namespace sa::can
