#pragma once
// Bus-to-bus CAN gateway: joins two or more CAN buses into one topology by
// store-and-forward routing. Zonal/domain architectures split traffic across
// segments (sensor bus, actuation bus, backbone) and a gateway ECU forwards
// the frames that must cross segments; the ROADMAP's "multi-bus fan-out"
// scenarios are built from exactly this primitive.
//
// Routes are directional: (from bus, to bus, id/mask filter). A matching
// frame completing on `from` is re-queued on `to` after `forward_latency`
// (the gateway ECU's store-and-forward processing time). Routing loops are
// the caller's responsibility — two routes forwarding the same id range in
// both directions will ping-pong.
//
// Sharding: a route may join buses living on different domains of one
// ShardedKernel. The forward then crosses domains through the kernel's
// mailboxes, and add_route() declares `forward_latency` as the ingress
// domain's lookahead bound — gateway routes are exactly the links whose
// latency defines how far the domains may safely race ahead of each other.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "can/controller.hpp"

namespace sa::can {

class BusGateway {
public:
    explicit BusGateway(Duration forward_latency = Duration::us(20));
    /// Pending (in-flight) forwards are dropped on destruction.
    ~BusGateway();

    BusGateway(const BusGateway&) = delete;
    BusGateway& operator=(const BusGateway&) = delete;

    /// Forward frames matching (id & mask) == (frame.id & mask) from `from`
    /// to `to`. `mask` 0 forwards everything. The buses must live on the
    /// same simulator or on two domains of the same ShardedKernel; a
    /// cross-domain route requires a positive forward latency, which is
    /// declared as the ingress domain's lookahead. Controllers are created
    /// lazily per bus.
    void add_route(CanBus& from, CanBus& to, std::uint32_t id, std::uint32_t mask);

    /// Frames accepted by a route filter and scheduled for forwarding.
    [[nodiscard]] std::uint64_t frames_forwarded() const noexcept {
        return forwarded_.load(std::memory_order_relaxed);
    }
    /// Forwards that were dropped because the egress TX queue was full.
    [[nodiscard]] std::uint64_t frames_dropped() const noexcept {
        return dropped_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::size_t attached_bus_count() const noexcept {
        return ports_.size();
    }

private:
    // One route's egress side, shared by the gateway and every forward in
    // flight on it; see bus_gateway.cpp.
    struct Route;
    class RouteRef;

    CanController& port(CanBus& bus);

    Duration latency_;
    // Stable addresses: forwarding callbacks capture CanController pointers.
    std::map<const CanBus*, std::unique_ptr<CanController>> ports_;
    // The gateway's own reference to each route.
    std::vector<RouteRef> routes_;
    // Relaxed atomics: forwarded_ counts on the ingress worker, dropped_ on
    // the egress worker; order-free sums.
    std::atomic<std::uint64_t> forwarded_{0};
    std::atomic<std::uint64_t> dropped_{0};
};

} // namespace sa::can
