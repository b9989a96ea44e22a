#pragma once
// A conventional ("native", non-virtualized) CAN controller: priority-sorted
// transmit queue, acceptance filters with callbacks on receive, and
// per-frame latency bookkeeping. This is the baseline the virtualized
// controller (Fig. 2) is compared against in bench/fig2_can_latency.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "can/bus.hpp"
#include "sim/signal.hpp"
#include "util/stats.hpp"

namespace sa::can {

/// Acceptance filter: frame matches if (frame.id & mask) == (id & mask).
struct RxFilter {
    std::uint32_t id = 0;
    std::uint32_t mask = 0; ///< 0 accepts everything
    std::function<void(const CanFrame&, Time)> callback;

    [[nodiscard]] bool matches(const CanFrame& frame) const noexcept {
        return (frame.id & mask) == (id & mask);
    }
};

/// ISO 11898 fault-confinement state, driven by the TEC/REC error counters.
/// A node whose transmissions keep failing isolates *itself* from the bus —
/// the classic self-protection mechanism against babbling(-idiot) faults.
enum class FaultConfinement { ErrorActive, ErrorPassive, BusOff };

const char* to_string(FaultConfinement state) noexcept;

/// TEC/REC bookkeeping per ISO 11898-1 (simplified: +8 per TX error, -1 per
/// successful TX; +1 per RX error, -1 per good RX).
class ErrorCounters {
public:
    void on_tx_error() noexcept;
    void on_tx_success() noexcept;
    void on_rx_error() noexcept;
    void on_rx_success() noexcept;

    [[nodiscard]] int tec() const noexcept { return tec_; }
    [[nodiscard]] int rec() const noexcept { return rec_; }
    [[nodiscard]] FaultConfinement state() const noexcept;

    /// Bus-off recovery (application-initiated reset).
    void reset() noexcept;

private:
    int tec_ = 0;
    int rec_ = 0;
    bool bus_off_ = false;
};

class CanController : public CanControllerBase {
public:
    CanController(CanBus& bus, std::string name, std::size_t tx_queue_capacity = 64);
    ~CanController() override;

    CanController(const CanController&) = delete;
    CanController& operator=(const CanController&) = delete;

    /// Queue a frame for transmission. Returns false if the TX queue is full
    /// (frame dropped; counted in tx_dropped()).
    bool send(const CanFrame& frame);

    /// Register an acceptance filter; matching frames invoke the callback.
    void add_rx_filter(std::uint32_t id, std::uint32_t mask,
                       std::function<void(const CanFrame&, Time)> callback);

    /// The bus this controller is attached to (fixed for its lifetime).
    [[nodiscard]] CanBus& bus() noexcept { return bus_; }

    // CanControllerBase
    std::optional<CanFrame> peek_tx() override;
    void tx_started(const CanFrame& frame) override;
    void tx_aborted(const CanFrame& frame) override;
    void tx_done(const CanFrame& frame, Time at) override;
    void rx_frame(const CanFrame& frame, Time at) override;
    [[nodiscard]] const std::string& node_name() const override { return name_; }

    // Statistics.
    [[nodiscard]] std::uint64_t tx_count() const noexcept { return tx_count_; }
    [[nodiscard]] std::uint64_t rx_count() const noexcept { return rx_count_; }
    [[nodiscard]] std::uint64_t tx_dropped() const noexcept { return tx_dropped_; }
    [[nodiscard]] std::size_t tx_pending() const noexcept { return tx_queue_.size(); }
    [[nodiscard]] const SampleSet& tx_latency_us() const noexcept { return tx_latency_us_; }

    /// Seen by the echo benches: loopback of own frames is suppressed.
    void set_receive_own(bool receive_own) noexcept { receive_own_ = receive_own; }

    // --- fault confinement (ISO 11898) -------------------------------------
    [[nodiscard]] FaultConfinement fault_state() const noexcept {
        return errors_.state();
    }
    [[nodiscard]] const ErrorCounters& error_counters() const noexcept {
        return errors_;
    }
    /// Application-initiated bus-off recovery: counters reset; queued frames
    /// were flushed when the node went bus-off.
    void recover_from_bus_off();
    /// Emitted once when the node enters BusOff.
    sim::Signal<>& bus_off() noexcept { return bus_off_signal_; }

private:
    struct PendingTx {
        CanFrame frame;
        Time enqueued;
    };

    CanBus& bus_;
    std::string name_;
    std::size_t capacity_;
    std::vector<PendingTx> tx_queue_; ///< kept sorted by priority on insert
    std::vector<RxFilter> filters_;
    bool receive_own_ = false;
    bool in_flight_ = false; ///< queue head is on the wire; nothing may pass it

    std::uint64_t tx_count_ = 0;
    std::uint64_t rx_count_ = 0;
    std::uint64_t tx_dropped_ = 0;
    SampleSet tx_latency_us_;

    // Last completed own transmission, used to suppress self-reception.
    bool last_tx_valid_ = false;
    CanFrame last_tx_frame_{};
    Time last_tx_time_{};

    ErrorCounters errors_;
    sim::Signal<> bus_off_signal_;
};

} // namespace sa::can
