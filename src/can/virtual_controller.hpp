#pragma once
// Virtualized CAN controller after Fig. 2 of the paper (and Herber et al.,
// DAC 2015 [8]): a hardware *virtualization layer* extends a traditional
// CAN controller (the *protocol layer*) such that multiple virtual machines
// share one physical controller.
//
//  - The controller is split into one privileged *physical function* (PF)
//    and N *virtual functions* (VFs). VFs provide the data path only; the
//    PF performs privileged operations (bus speed, VF resource management)
//    and "shall only be accessible to privileged SW components, e.g. the
//    hypervisor running an MCC".
//  - TX: each VF owns private mailboxes. The virtualization layer arbitrates
//    pending frames across VFs strictly by CAN-id priority, so bus priority
//    is respected end-to-end ("transmitted with respect to their bus
//    priority in real-time").
//  - RX: completed frames are filtered towards the VFs via per-VF filter
//    tables ("messages are filtered towards the VMs").
//  - Every doorbell/copy/filter step costs configurable latency; defaults
//    are calibrated so a round-trip echo over two virtualized endpoints adds
//    ~7-11 us versus two native controllers, matching §III of the paper.
//
// Implementation notes (throughput): the kernel events this layer schedules
// (doorbell latches, RX copies) capture at most {this, one 64-bit token} so
// std::function stays in its inline storage — per-frame virtualization
// overhead costs no heap allocations. RX deliveries ride a FIFO staging
// queue drained in schedule order, which is valid because every delivery
// shares the same fixed rx_filter + rx_copy latency.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "can/bus.hpp"
#include "can/controller.hpp" // RxFilter
#include "util/stable_vector.hpp"
#include "util/stats.hpp"

namespace sa::can {

/// Latencies of the virtualization layer (per operation).
struct VirtLatencyModel {
    // Defaults calibrated against Herber et al. [8]: a round trip between two
    // virtualized endpoints adds 2*(tx + rx) overhead = 7.0 us with one VF,
    // growing by ~0.5 us per additional active VF (arbitration scan), i.e.
    // 7-11 us across 1..8 VFs — the range the paper quotes.
    Duration tx_doorbell = Duration::ns(1'000);    ///< VM write -> VF mailbox latched
    Duration tx_arbitration = Duration::ns(800);   ///< cross-VF priority pick
    Duration tx_per_active_vf = Duration::ns(250); ///< arbitration scan per extra VF
    Duration rx_filter = Duration::ns(700);        ///< filter-table lookup
    Duration rx_copy = Duration::ns(1'000);        ///< copy into VM RX ring + doorbell
};

/// Thrown when an unprivileged caller invokes a PF operation.
class PrivilegeError : public std::runtime_error {
public:
    explicit PrivilegeError(const std::string& what) : std::runtime_error(what) {}
};

/// Cross-VF TX arbitration policy. The paper's design (Fig. 2, [8]) demands
/// Priority — frames leave "with respect to their bus priority" regardless
/// of the owning VM. RoundRobin is the naive fair-share ablation baseline:
/// it causes priority inversion between VMs, which the ablation bench
/// quantifies.
enum class VfArbitration { Priority, RoundRobin };

/// Token proving the holder may use the physical function. Only the
/// hypervisor/MCC side of the system should hold one (the constructor of
/// VirtualCanController hands out exactly one).
class PfToken {
public:
    PfToken(const PfToken&) = delete;
    PfToken& operator=(const PfToken&) = delete;
    PfToken(PfToken&&) noexcept = default;
    PfToken& operator=(PfToken&&) noexcept = default;

private:
    friend class VirtualCanController;
    PfToken() = default;
};

class VirtualCanController;

/// Data-path handle a VM uses: private TX mailboxes + RX callback.
class VirtualFunction {
public:
    /// Passkey gating construction to the owning controller. The constructor
    /// must be public so the controller's StableVector can emplace VFs in
    /// place, but only VirtualCanController can mint a Key — so VF creation
    /// still goes through pf_create_vf exclusively.
    class Key {
        friend class VirtualCanController;
        Key() = default;
    };

    VirtualFunction(Key /*key*/, VirtualCanController& owner, int index,
                    std::size_t mailboxes)
        : owner_(owner), index_(index), mailboxes_(mailboxes) {}

    /// Queue a frame in this VF's mailbox set. Returns false (drop) when all
    /// mailboxes are occupied.
    bool send(const CanFrame& frame);

    /// Register an RX filter; matching frames are delivered to this VF.
    void add_rx_filter(std::uint32_t id, std::uint32_t mask,
                       std::function<void(const CanFrame&, Time)> callback);

    [[nodiscard]] int index() const noexcept { return index_; }
    [[nodiscard]] bool enabled() const noexcept { return enabled_; }
    [[nodiscard]] std::size_t mailbox_count() const noexcept { return mailboxes_; }
    [[nodiscard]] std::uint64_t tx_count() const noexcept { return tx_count_; }
    [[nodiscard]] std::uint64_t rx_count() const noexcept { return rx_count_; }
    [[nodiscard]] std::uint64_t tx_dropped() const noexcept { return tx_dropped_; }
    [[nodiscard]] const SampleSet& tx_latency_us() const noexcept { return tx_latency_us_; }

private:
    friend class VirtualCanController;
    struct PendingTx {
        CanFrame frame;
        Time enqueued;
        std::uint64_t seq = 0; ///< doorbell identity
        bool latched = false;  ///< doorbell latency elapsed; visible to arbiter
    };

    VirtualCanController& owner_;
    int index_;
    std::size_t mailboxes_;
    bool enabled_ = true;
    std::vector<PendingTx> queue_; ///< kept sorted by CAN id (stable)
    std::vector<RxFilter> filters_;
    std::uint64_t tx_count_ = 0;
    std::uint64_t rx_count_ = 0;
    std::uint64_t tx_dropped_ = 0;
    SampleSet tx_latency_us_;
};

class VirtualCanController : public CanControllerBase {
public:
    explicit VirtualCanController(CanBus& bus, VirtLatencyModel latency = {});
    ~VirtualCanController() override;

    VirtualCanController(const VirtualCanController&) = delete;
    VirtualCanController& operator=(const VirtualCanController&) = delete;

    /// Obtain the single PF token. Can be taken exactly once.
    [[nodiscard]] PfToken take_pf_token();

    // --- Physical function (privileged) -----------------------------------
    VirtualFunction& pf_create_vf(const PfToken& token, std::size_t mailboxes = 8);
    void pf_enable_vf(const PfToken& token, int vf_index, bool enabled);
    void pf_set_bus_bitrate(const PfToken& token, std::int64_t bps);
    void pf_set_vf_mailboxes(const PfToken& token, int vf_index, std::size_t mailboxes);

    // --- Data path (unprivileged; used by VirtualFunction) ----------------
    [[nodiscard]] std::size_t vf_count() const noexcept { return vfs_.size(); }
    [[nodiscard]] VirtualFunction& vf(int index);

    // CanControllerBase
    std::optional<CanFrame> peek_tx() override;
    void tx_done(const CanFrame& frame, Time at) override;
    void rx_frame(const CanFrame& frame, Time at) override;

    [[nodiscard]] std::size_t active_vf_count() const noexcept;

    /// Select the cross-VF arbitration policy (PF-privileged: the hypervisor
    /// decides the sharing discipline).
    void pf_set_arbitration(const PfToken& token, VfArbitration arbitration);
    [[nodiscard]] VfArbitration arbitration() const noexcept { return arbitration_; }

private:
    friend class VirtualFunction;
    /// An RX delivery staged behind the fixed rx_filter + rx_copy latency.
    /// Deliveries drain strictly FIFO because the latency is identical for
    /// every entry, so the staging queue needs no timestamps.
    struct PendingRx {
        int vf_index;
        std::size_t filter_index;
        CanFrame frame;
    };

    void vf_doorbell(VirtualFunction& vf, std::uint64_t seq);
    void latch_doorbell(std::uint64_t token);
    void deliver_pending_rx();
    /// Called by a VF when its filter table goes from empty to non-empty.
    void note_rx_filter(int vf_index);
    [[nodiscard]] Duration arbitration_latency() const;
    VirtualFunction* best_pending(const CanFrame** frame_out);
    std::uint64_t next_tx_seq_ = 1;

    CanBus& bus_;
    VirtLatencyModel latency_;
    bool pf_token_taken_ = false;
    // StableVector, not vector<unique_ptr>: references must stay stable
    // across pf_create_vf (vf() hands out VirtualFunction&), and its chunked
    // storage makes N VFs cost O(N / chunk) allocations instead of one `new`
    // per VF — controller bring-up is the allocation-heaviest part of the
    // virtualized data path (fig. 2 bench).
    util::StableVector<VirtualFunction> vfs_;
    int last_tx_vf_ = -1; ///< VF of the just-completed transmission (self-RX mask)
    VfArbitration arbitration_ = VfArbitration::Priority;
    std::size_t rr_next_ = 0; ///< round-robin cursor
    // FIFO staging queue for in-flight RX deliveries: pops advance rx_head_
    // and the storage is compacted whenever it runs empty, so steady-state
    // delivery does not allocate.
    std::vector<PendingRx> rx_fifo_;
    std::size_t rx_head_ = 0;
    // Indices (ascending) of VFs with at least one RX filter. rx_frame runs
    // once per completed frame per controller and only these VFs can match,
    // so it scans this list instead of every VF — with many VFs configured
    // and few subscribed (the common virtualized topology), that's the
    // difference between O(#VFs) and O(#subscribers) per delivery. Ascending
    // order preserves the original VF-index delivery order.
    std::vector<int> rx_filtered_vfs_;
};

} // namespace sa::can
