#include "can/trace.hpp"

#include <algorithm>
#include <type_traits>

#include "util/assert.hpp"

namespace sa::can {

static_assert(std::is_trivially_copyable_v<CanTraceRecord>);

std::string_view CanTraceRecord::tag() const noexcept {
    switch (kind) {
    case CanTraceKind::Arb: return "can.arb";
    case CanTraceKind::Tx: return "can.tx";
    case CanTraceKind::Err: return "can.err";
    }
    return "can.?";
}

CanTrace::CanTrace(std::size_t capacity) : capacity_(capacity) {
    SA_REQUIRE(capacity_ >= 1, "trace capacity must be at least 1");
}

std::uint32_t CanTrace::intern_node(const std::string& name) {
    const auto it = std::find(nodes_.begin(), nodes_.end(), name);
    if (it != nodes_.end()) {
        return static_cast<std::uint32_t>(it - nodes_.begin());
    }
    nodes_.push_back(name);
    return static_cast<std::uint32_t>(nodes_.size() - 1);
}

void CanTrace::record(const CanTraceRecord& record) {
    ++total_;
    if (ring_.size() == capacity_) {
        ring_[head_] = record;
        head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
        return;
    }
    if (ring_.size() == ring_.capacity()) {
        // Jump straight to 16 records instead of doubling through 1/2/4/8:
        // short simulations record a handful of frames.
        ring_.reserve(std::min(ring_.empty() ? std::size_t{16} : 2 * ring_.size(), capacity_));
    }
    ring_.push_back(record);
}

std::string CanTrace::detail(const CanTraceRecord& record) const {
    if (record.kind == CanTraceKind::Arb) {
        return nodes_.at(record.node) + " wins with " + record.frame.str();
    }
    return record.frame.str();
}

} // namespace sa::can
