#pragma once
// The CAN bus trace: a bounded ring of typed records, two per frame (the
// arbitration win, then the completion or the error frame). A record is 32
// trivially copyable bytes, so recording formats no text; tag() and
// detail() render it only when a reader asks:
//
//   can.arb  zone_front@can_sense wins with 7ff [0]
//   can.tx   x1abcdef0 [8] : de ad 0 ff 1 2 3 10
//   can.err  5 [1] : ab
//
// The ring grows by doubling (from 16 records) to its capacity once, then
// overwrites its oldest record in place, so a saturated trace records
// without touching the heap. It holds the last capacity records (the last
// 512 frames at CanBusConfig's default), so it is a debugging window, not a
// history: only tests read it (the sharded-parity fingerprints check that
// nothing was evicted). Code that needs every frame subscribes to
// CanBus::frame_completed() instead.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "can/frame.hpp"
#include "sim/time.hpp"

namespace sa::can {

enum class CanTraceKind : std::uint8_t { Arb, Tx, Err };

struct CanTraceRecord {
    sim::Time at;
    CanFrame frame;
    std::uint32_t node = 0; ///< the transmitter, as interned by CanTrace
    CanTraceKind kind = CanTraceKind::Tx;

    /// "can.arb", "can.tx" or "can.err".
    [[nodiscard]] std::string_view tag() const noexcept;
};

class CanTrace {
public:
    explicit CanTrace(std::size_t capacity);

    /// Index of a transmitter name for CanTraceRecord::node. Equal names
    /// share one index, so the table stays bounded by the distinct names
    /// however often controllers attach and detach.
    std::uint32_t intern_node(const std::string& name);

    void record(const CanTraceRecord& record);

    [[nodiscard]] std::size_t size() const noexcept { return ring_.size(); }
    /// Every record ever made, including the ones the ring has evicted.
    [[nodiscard]] std::uint64_t total_recorded() const noexcept { return total_; }

    /// The i-th retained record, oldest first.
    [[nodiscard]] const CanTraceRecord& operator[](std::size_t i) const noexcept {
        const std::size_t pos = head_ + i;
        return ring_[pos >= ring_.size() ? pos - ring_.size() : pos];
    }

    /// "<node> wins with <frame>" for an arbitration record, the frame
    /// (CanFrame::str()) for the others.
    [[nodiscard]] std::string detail(const CanTraceRecord& record) const;

private:
    std::size_t capacity_;
    std::vector<CanTraceRecord> ring_;
    std::size_t head_ = 0; ///< oldest record once the ring is full, else 0
    std::uint64_t total_ = 0;
    std::vector<std::string> nodes_;
};

} // namespace sa::can
