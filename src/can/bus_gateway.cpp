#include "can/bus_gateway.hpp"

#include <utility>

#include "can/bus.hpp"
#include "sim/sharded_kernel.hpp"
#include "util/assert.hpp"

namespace sa::can {

/// A forward event captures a RouteRef and the frame: 24 bytes, the kernel's
/// inline action budget, so forwarding a frame never touches the heap. The
/// event checks `alive` before touching the gateway, so destroying a gateway
/// while its simulator keeps running drops the pending forwards instead of
/// dereferencing freed controllers. The counts are atomic because the two
/// ends of a cross-domain route run on different workers: the ingress side
/// takes a reference, the egress side drops it.
struct BusGateway::Route {
    BusGateway* gateway;
    CanController* egress;
    std::atomic<std::uint32_t> refs{0};
    std::atomic<bool> alive{true};
};

class BusGateway::RouteRef {
public:
    explicit RouteRef(Route* route) noexcept : route_(route) {
        route_->refs.fetch_add(1, std::memory_order_relaxed);
    }
    RouteRef(RouteRef&& other) noexcept : route_(std::exchange(other.route_, nullptr)) {}
    RouteRef(const RouteRef&) = delete;
    RouteRef& operator=(const RouteRef&) = delete;
    RouteRef& operator=(RouteRef&&) = delete;
    ~RouteRef() {
        if (route_ != nullptr && route_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            delete route_;
        }
    }

    Route* operator->() const noexcept { return route_; }

private:
    Route* route_;
};

BusGateway::BusGateway(Duration forward_latency) : latency_(forward_latency) {
    SA_REQUIRE(latency_.count_ns() >= 0, "forward latency must be non-negative");
}

BusGateway::~BusGateway() {
    for (const RouteRef& route : routes_) {
        route->alive.store(false, std::memory_order_relaxed);
    }
}

CanController& BusGateway::port(CanBus& bus) {
    auto it = ports_.find(&bus);
    if (it == ports_.end()) {
        it = ports_.emplace(&bus, std::make_unique<CanController>(bus)).first;
    }
    return *it->second;
}

void BusGateway::add_route(CanBus& from, CanBus& to, std::uint32_t id,
                           std::uint32_t mask) {
    SA_REQUIRE(&from != &to, "gateway route must join two distinct buses");
    sim::Simulator& ingress_sim = from.simulator();
    sim::Simulator& egress_sim = to.simulator();
    if (&ingress_sim != &egress_sim) {
        // Cross-domain route: both ends must shard the same kernel, and the
        // forward latency is the conservative lookahead the ingress domain
        // grants the rest of the system.
        SA_REQUIRE(ingress_sim.shard() != nullptr &&
                       ingress_sim.shard() == egress_sim.shard(),
                   "gateway route must stay on one simulator or join two "
                   "domains of one ShardedKernel");
        SA_REQUIRE(latency_.count_ns() > 0,
                   "a cross-domain gateway route needs a positive forward "
                   "latency (it becomes the ingress domain's lookahead)");
        ingress_sim.shard()->declare_lookahead(ingress_sim, latency_);
    }
    auto* route = new Route{this, &port(to)};
    routes_.emplace_back(route);
    port(from).add_rx_filter(
        id, mask, [this, route, &ingress_sim](const CanFrame& frame, Time) {
            forwarded_.fetch_add(1, std::memory_order_relaxed);
            // Store-and-forward: the egress send happens after the gateway's
            // processing latency, from a fresh event (never from inside the
            // ingress bus's RX delivery), on the egress bus's domain when the
            // route crosses domains.
            sim::post(route->egress->bus().simulator(), ingress_sim.now() + latency_,
                      [ref = RouteRef(route), frame] {
                          if (!ref->alive.load(std::memory_order_relaxed)) {
                              return;
                          }
                          if (!ref->egress->send(frame)) {
                              ref->gateway->dropped_.fetch_add(1, std::memory_order_relaxed);
                          }
                      });
        });
}

} // namespace sa::can
