#include "can/virtual_controller.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace sa::can {

namespace {
// Doorbell events pack {vf index, send sequence} into one 64-bit token so
// the scheduled lambda captures {this, token} and stays within
// std::function's inline storage (no per-doorbell heap allocation).
constexpr int kTokenVfShift = 48;
constexpr std::uint64_t kTokenSeqMask = (std::uint64_t{1} << kTokenVfShift) - 1;

std::uint64_t make_doorbell_token(int vf_index, std::uint64_t seq) noexcept {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(vf_index)) << kTokenVfShift) |
           (seq & kTokenSeqMask);
}
} // namespace

// ---------------------------------------------------------------------------
// VirtualFunction
// ---------------------------------------------------------------------------

bool VirtualFunction::send(const CanFrame& frame) {
    SA_REQUIRE(frame.valid(), "cannot send an invalid frame");
    if (!enabled_ || queue_.size() >= mailboxes_) {
        ++tx_dropped_;
        return false;
    }
    // Mailboxes transmit in priority order: insert sorted by CAN id, stable.
    const std::uint64_t seq = owner_.next_tx_seq_++;
    auto it = std::find_if(queue_.begin(), queue_.end(),
                           [&](const PendingTx& p) { return frame.id < p.frame.id; });
    queue_.insert(it, PendingTx{frame, owner_.bus_.simulator().now(), seq, false});
    owner_.vf_doorbell(*this, seq);
    return true;
}

void VirtualFunction::add_rx_filter(std::uint32_t id, std::uint32_t mask,
                                    std::function<void(const CanFrame&, Time)> callback) {
    SA_REQUIRE(static_cast<bool>(callback), "RX filter needs a callback");
    if (filters_.empty()) {
        owner_.note_rx_filter(index_);
    }
    filters_.push_back(RxFilter{id, mask, std::move(callback)});
}

// ---------------------------------------------------------------------------
// VirtualCanController
// ---------------------------------------------------------------------------

VirtualCanController::VirtualCanController(CanBus& bus, VirtLatencyModel latency)
    : bus_(bus), latency_(latency) {
    bus_.attach(*this);
}

VirtualCanController::~VirtualCanController() { bus_.detach(*this); }

PfToken VirtualCanController::take_pf_token() {
    SA_REQUIRE(!pf_token_taken_, "PF token already taken — only one privileged owner");
    pf_token_taken_ = true;
    return PfToken{};
}

VirtualFunction& VirtualCanController::pf_create_vf(const PfToken&, std::size_t mailboxes) {
    SA_REQUIRE(mailboxes > 0, "a VF needs at least one mailbox");
    const int index = static_cast<int>(vfs_.size());
    vfs_.emplace_back(VirtualFunction::Key{}, *this, index, mailboxes);
    return vfs_.back();
}

void VirtualCanController::pf_enable_vf(const PfToken&, int vf_index, bool enabled) {
    vf(vf_index).enabled_ = enabled;
    // Enabling exposes latched frames to arbitration; disabling hides them.
    // Either way the bus's cached head for this controller is stale.
    bus_.notify_tx_pending(*this);
}

void VirtualCanController::pf_set_bus_bitrate(const PfToken&, std::int64_t bps) {
    bus_.set_bitrate(bps);
}

void VirtualCanController::pf_set_vf_mailboxes(const PfToken&, int vf_index,
                                               std::size_t mailboxes) {
    SA_REQUIRE(mailboxes > 0, "a VF needs at least one mailbox");
    vf(vf_index).mailboxes_ = mailboxes;
}

VirtualFunction& VirtualCanController::vf(int index) {
    SA_REQUIRE(index >= 0 && static_cast<std::size_t>(index) < vfs_.size(),
               "VF index out of range");
    return vfs_[static_cast<std::size_t>(index)];
}

std::size_t VirtualCanController::active_vf_count() const noexcept {
    std::size_t n = 0;
    for (const auto& vf : vfs_) {
        if (vf.enabled_) {
            ++n;
        }
    }
    return n;
}

Duration VirtualCanController::arbitration_latency() const {
    const std::size_t active = active_vf_count();
    const std::int64_t extra =
        active > 1 ? static_cast<std::int64_t>(active - 1) * latency_.tx_per_active_vf.count_ns()
                   : 0;
    return latency_.tx_arbitration + Duration(extra);
}

void VirtualCanController::vf_doorbell(VirtualFunction& vf, std::uint64_t seq) {
    // The frame becomes visible to the bus-side protocol layer only after the
    // doorbell write propagates and the virtualization layer re-arbitrates
    // across VFs. Latch exactly the slot this doorbell announced.
    const Duration delay = latency_.tx_doorbell + arbitration_latency();
    const std::uint64_t token = make_doorbell_token(vf.index_, seq);
    bus_.simulator().schedule(delay, [this, token] { latch_doorbell(token); });
}

void VirtualCanController::latch_doorbell(std::uint64_t token) {
    const auto vf_index = static_cast<std::size_t>(token >> kTokenVfShift);
    const std::uint64_t seq = token & kTokenSeqMask;
    VirtualFunction& f = vfs_[vf_index];
    for (auto& p : f.queue_) {
        if ((p.seq & kTokenSeqMask) == seq) {
            p.latched = true;
            break;
        }
    }
    bus_.notify_tx_pending(*this);
}

void VirtualCanController::note_rx_filter(int vf_index) {
    // Keep ascending VF-index order so deliveries happen in the same order a
    // full scan over vfs_ would produce.
    auto it = std::lower_bound(rx_filtered_vfs_.begin(), rx_filtered_vfs_.end(), vf_index);
    rx_filtered_vfs_.insert(it, vf_index);
}

void VirtualCanController::pf_set_arbitration(const PfToken&, VfArbitration arbitration) {
    arbitration_ = arbitration;
    // The policy decides which latched frame is the head; the bus's cached
    // peek for this controller is stale under the new policy.
    bus_.notify_tx_pending(*this);
}

VirtualFunction* VirtualCanController::best_pending(const CanFrame** frame_out) {
    VirtualFunction* best_vf = nullptr;
    const CanFrame* best = nullptr;
    if (arbitration_ == VfArbitration::Priority) {
        // The paper's design: lowest CAN id across all VFs wins.
        for (auto& f : vfs_) {
            if (!f.enabled_) {
                continue;
            }
            for (const auto& p : f.queue_) {
                if (!p.latched) {
                    continue;
                }
                if (best == nullptr || p.frame.id < best->id) {
                    best = &p.frame;
                    best_vf = &f;
                }
                break; // queue is priority-sorted; first latched is its best
            }
        }
    } else {
        // Ablation baseline: serve VFs in turn regardless of frame priority.
        // Selection is side-effect-free (the bus caches peek_tx answers);
        // the cursor advances in tx_done, i.e. per transmission granted.
        const std::size_t n = vfs_.size();
        for (std::size_t k = 0; k < n && best == nullptr; ++k) {
            VirtualFunction& f = vfs_[(rr_next_ + k) % n];
            if (!f.enabled_) {
                continue;
            }
            for (const auto& p : f.queue_) {
                if (p.latched) {
                    best = &p.frame;
                    best_vf = &f;
                    break;
                }
            }
        }
    }
    if (frame_out != nullptr) {
        *frame_out = best;
    }
    return best_vf;
}

std::optional<CanFrame> VirtualCanController::peek_tx() {
    const CanFrame* frame = nullptr;
    if (best_pending(&frame) == nullptr) {
        return std::nullopt;
    }
    return *frame;
}

void VirtualCanController::tx_done(const CanFrame& frame, Time at) {
    // Find the VF holding this latched frame at its head position.
    for (auto& f : vfs_) {
        auto& q = f.queue_;
        auto it = std::find_if(q.begin(), q.end(), [&](const VirtualFunction::PendingTx& p) {
            return p.latched && p.frame == frame;
        });
        if (it != q.end()) {
            f.tx_count_++;
            f.tx_latency_us_.add((at - it->enqueued).to_us());
            last_tx_vf_ = f.index_;
            q.erase(it);
            // Round-robin rotates per transmission granted (not per peek:
            // peeks are cached by the bus and must stay side-effect-free).
            rr_next_ = (static_cast<std::size_t>(f.index_) + 1) % vfs_.size();
            return;
        }
    }
    SA_ASSERT(false, "tx_done for a frame not owned by any VF");
}

void VirtualCanController::rx_frame(const CanFrame& frame, Time at) {
    // Filter towards the VMs; the transmitting VF does not see its own frame.
    const bool own = (last_tx_vf_ >= 0) && (at == bus_.simulator().now());
    const Duration delay = latency_.rx_filter + latency_.rx_copy;
    for (const int idx : rx_filtered_vfs_) {
        VirtualFunction& f = vfs_[static_cast<std::size_t>(idx)];
        if (!f.enabled_) {
            continue;
        }
        if (own && f.index_ == last_tx_vf_) {
            continue;
        }
        for (std::size_t fi = 0; fi < f.filters_.size(); ++fi) {
            if (f.filters_[fi].matches(frame)) {
                // Stage the delivery; the event captures only `this` and the
                // FIFO hands it the right entry (fixed delay => FIFO order).
                if (rx_fifo_.capacity() == 0) {
                    rx_fifo_.reserve(8); // skip the 1/2/4 doubling ramp
                }
                rx_fifo_.push_back(PendingRx{f.index_, fi, frame});
                bus_.simulator().schedule(delay, [this] { deliver_pending_rx(); });
                break; // first matching filter wins per VF
            }
        }
    }
    last_tx_vf_ = -1;
}

void VirtualCanController::deliver_pending_rx() {
    SA_ASSERT(rx_head_ < rx_fifo_.size(), "RX delivery without a staged entry");
    // Copy the entry out: the callback may receive further frames and grow
    // (reallocate) the staging queue re-entrantly.
    const PendingRx rx = rx_fifo_[rx_head_++];
    if (rx_head_ == rx_fifo_.size()) {
        rx_fifo_.clear();
        rx_head_ = 0;
    } else if (rx_head_ >= 64 && rx_head_ * 2 >= rx_fifo_.size()) {
        // Under sustained traffic the FIFO may never run empty; compact the
        // consumed prefix so storage stays bounded by the in-flight window.
        rx_fifo_.erase(rx_fifo_.begin(),
                       rx_fifo_.begin() + static_cast<std::ptrdiff_t>(rx_head_));
        rx_head_ = 0;
    }
    VirtualFunction& f = vfs_[static_cast<std::size_t>(rx.vf_index)];
    f.rx_count_++;
    // Filters are append-only, so the staged index stays valid even if the
    // callback registered more filters meanwhile — but MOVE the callback out
    // for the call: a callback that adds filters to its own VF reallocates
    // filters_, which would destroy the std::function mid-invocation. Moving
    // (instead of the old copy) keeps the steady-state delivery free of the
    // capture-state allocation; deliveries are scheduled events, so the slot
    // is never invoked re-entrantly while vacated.
    auto callback = std::move(f.filters_[rx.filter_index].callback);
    callback(rx.frame, bus_.simulator().now());
    vfs_[static_cast<std::size_t>(rx.vf_index)].filters_[rx.filter_index].callback =
        std::move(callback);
}

} // namespace sa::can
