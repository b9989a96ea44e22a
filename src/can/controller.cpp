#include "can/controller.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace sa::can {

namespace {
/// TX queue priority order: lower CAN id first; FIFO among equal ids.
bool higher_priority(const CanFrame& a, const CanFrame& b) noexcept { return a.id < b.id; }
} // namespace

void ErrorCounters::on_tx_error() noexcept {
    tec_ += 8;
    if (tec_ >= 256) {
        bus_off_ = true;
    }
}

void ErrorCounters::on_tx_success() noexcept { tec_ = std::max(0, tec_ - 1); }

void ErrorCounters::on_rx_error() noexcept { rec_ = std::min(255, rec_ + 1); }

void ErrorCounters::on_rx_success() noexcept { rec_ = std::max(0, rec_ - 1); }

FaultConfinement ErrorCounters::state() const noexcept {
    if (bus_off_) {
        return FaultConfinement::BusOff;
    }
    if (tec_ >= 128 || rec_ >= 128) {
        return FaultConfinement::ErrorPassive;
    }
    return FaultConfinement::ErrorActive;
}

void ErrorCounters::reset() noexcept {
    tec_ = 0;
    rec_ = 0;
    bus_off_ = false;
}

CanController::CanController(CanBus& bus, std::size_t tx_queue_capacity)
    : bus_(bus), capacity_(tx_queue_capacity) {
    SA_REQUIRE(capacity_ > 0, "TX queue capacity must be positive");
    bus_.attach(*this);
}

CanController::~CanController() { bus_.detach(*this); }

bool CanController::send(const CanFrame& frame) {
    SA_REQUIRE(frame.valid(), "cannot send an invalid frame");
    if (tx_queue_.size() >= capacity_) {
        ++tx_dropped_;
        return false;
    }
    // Insert keeping priority order (stable for equal ids). A frame already
    // on the wire stays pinned at the head — CAN transmission is
    // non-preemptive, so nothing may overtake it in this controller.
    auto begin = tx_queue_.begin();
    if (in_flight_ && begin != tx_queue_.end()) {
        ++begin;
    }
    auto it = std::find_if(begin, tx_queue_.end(), [&](const CanFrame& queued) {
        return higher_priority(frame, queued);
    });
    tx_queue_.insert(it, frame);
    bus_.notify_tx_pending(*this);
    return true;
}

void CanController::add_rx_filter(std::uint32_t id, std::uint32_t mask,
                                  std::function<void(const CanFrame&, Time)> callback) {
    SA_REQUIRE(static_cast<bool>(callback), "RX filter needs a callback");
    filters_.push_back(RxFilter{id, mask, std::move(callback)});
}

std::optional<CanFrame> CanController::peek_tx() {
    if (errors_.state() == FaultConfinement::BusOff || tx_queue_.empty()) {
        return std::nullopt;
    }
    return tx_queue_.front();
}

void CanController::tx_started(const CanFrame& frame) {
    SA_ASSERT(!tx_queue_.empty() && tx_queue_.front() == frame,
              "tx_started for a frame that is not at the queue head");
    in_flight_ = true;
}

void CanController::tx_aborted(const CanFrame& frame) {
    (void)frame;
    in_flight_ = false; // retry via the next arbitration round
    const bool was_off = errors_.state() == FaultConfinement::BusOff;
    errors_.on_tx_error();
    if (!was_off && errors_.state() == FaultConfinement::BusOff) {
        // Fault confinement: the node isolates itself; pending TX is flushed.
        tx_dropped_ += tx_queue_.size();
        tx_queue_.clear();
        bus_off_signal_.emit();
    }
}

void CanController::recover_from_bus_off() {
    errors_.reset();
    bus_.notify_tx_pending(*this);
}

void CanController::tx_done(const CanFrame& frame, Time at) {
    SA_ASSERT(!tx_queue_.empty() && tx_queue_.front() == frame,
              "tx_done for a frame that is not at the queue head");
    in_flight_ = false;
    tx_queue_.erase(tx_queue_.begin());
    ++tx_count_;
    errors_.on_tx_success();
    last_tx_valid_ = true;
    last_tx_frame_ = frame;
    last_tx_time_ = at;
}

void CanController::rx_frame(const CanFrame& frame, Time at) {
    // A controller does not receive its own transmission (self-reception is
    // an opt-in feature on real controllers, and nothing here opts in).
    // Identify "own" frames conservatively: the frame we just completed. The
    // bus calls tx_done before rx_frame, so our queue no longer holds it;
    // track by comparing against the last completed frame instead.
    if (last_tx_valid_ && frame == last_tx_frame_ && at == last_tx_time_) {
        return;
    }
    errors_.on_rx_success();
    for (const auto& f : filters_) {
        if (f.matches(frame)) {
            ++rx_count_;
            f.callback(frame, at);
            return; // first matching filter wins (hardware mailbox semantics)
        }
    }
}

} // namespace sa::can
