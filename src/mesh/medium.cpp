#include "mesh/medium.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>

#include "sim/sharded_kernel.hpp"
#include "util/assert.hpp"
#include "util/hash.hpp"

namespace sa::v2v {

using util::fnv1a64;
using util::splitmix64;

Medium::Medium(sim::Simulator& simulator, MediumConfig config)
    : simulator_(simulator),
      config_(config),
      senders_((simulator.shard() != nullptr ? simulator.shard()->num_domains() : 0) +
               1) {
    SA_REQUIRE(config_.loss_probability >= 0.0 && config_.loss_probability <= 1.0,
               "loss probability must be within [0,1]");
    SA_REQUIRE(config_.latency.count_ns() >= 0, "latency must be non-negative");
    SA_REQUIRE(config_.range_m >= 0.0, "radio range must be non-negative");
    SA_REQUIRE(config_.fading == Fading::None || config_.range_m > 0.0,
               "a fading model needs a finite radio range (range_m > 0)");
    if (sim::ShardedKernel* kernel = simulator_.shard()) {
        SA_REQUIRE(config_.latency.count_ns() > 0,
                   "a V2V medium on a sharded kernel needs a positive "
                   "latency (it becomes every domain's lookahead)");
        // Any domain may carry a transmitter, so the frame latency bounds
        // every domain's lookahead: it IS the window the domains may race
        // ahead.
        for (std::size_t d = 0; d < kernel->num_domains(); ++d) {
            kernel->declare_lookahead(d, config_.latency);
            homes_.push_back(Home{&kernel->domain(d), {}});
        }
    } else {
        homes_.push_back(Home{&simulator_, {}});
    }
}

void Medium::require_quiescent(const char* operation) const {
    SA_REQUIRE(sim::detail::executing_domain() == nullptr,
               std::string("Medium::") + operation +
                   " called from inside a sharded window: membership and "
                   "positions are read lock-free by every domain's "
                   "transmit(); mutate only between runs or from a script "
                   "barrier");
}

void Medium::attach(const std::string& name, sim::Simulator& home,
                    Receiver receiver, double position_m) {
    require_quiescent("attach");
    SA_REQUIRE(static_cast<bool>(receiver), "receiver must be callable");
    SA_REQUIRE(&home == &simulator_ || (simulator_.shard() != nullptr &&
                                        home.shard() == simulator_.shard()),
               "endpoint home must be the medium's simulator or a domain of "
               "the same sharded kernel");
    const auto [entry, inserted] = slots_.try_emplace(name, 0);
    SA_REQUIRE(inserted, "duplicate medium endpoint: " + name);
    if (free_slots_.empty()) {
        entry->second = static_cast<std::uint32_t>(endpoints_.size());
        endpoints_.emplace_back();
    } else {
        entry->second = free_slots_.back();
        free_slots_.pop_back();
    }
    Endpoint& endpoint = endpoints_[entry->second];
    endpoint.name = &entry->first;
    endpoint.receiver = std::move(receiver);
    endpoint.position_m = position_m;
    endpoint.name_hash = fnv1a64(name);
    endpoint.home = simulator_.shard() != nullptr ? home.shard_domain() : 0;
    // The home's receivers stay in endpoint-name order.
    std::vector<std::uint32_t>& receivers = homes_[endpoint.home].receivers;
    receivers.insert(std::lower_bound(receivers.begin(), receivers.end(), name,
                                      [this](std::uint32_t other, const std::string& key) {
                                          return *endpoints_[other].name < key;
                                      }),
                     entry->second);
    refresh_rssi(entry->second);
}

void Medium::detach(const std::string& name) {
    require_quiescent("detach");
    const auto it = slots_.find(name);
    if (it == slots_.end()) {
        return;
    }
    Endpoint& endpoint = endpoints_[it->second];
    ++endpoint.generation; // frames in flight to this slot now miss it
    endpoint.receiver = nullptr;
    std::erase(homes_[endpoint.home].receivers, it->second);
    free_slots_.push_back(it->second);
    slots_.erase(it);
}

void Medium::move(const std::string& name, double position_m) {
    require_quiescent("move");
    const auto it = slots_.find(name);
    SA_REQUIRE(it != slots_.end(), "unknown medium endpoint: " + name);
    endpoints_[it->second].position_m = position_m;
    refresh_rssi(it->second);
}

void Medium::refresh_rssi(std::uint32_t slot) {
    const std::size_t stride = std::bit_ceil(endpoints_.size());
    if (stride > rssi_stride_) {
        std::vector<double> grown(stride * stride);
        for (std::size_t tx = 0; tx < rssi_stride_; ++tx) {
            std::copy_n(rssi_.begin() + static_cast<std::ptrdiff_t>(tx * rssi_stride_),
                        rssi_stride_,
                        grown.begin() + static_cast<std::ptrdiff_t>(tx * stride));
        }
        rssi_ = std::move(grown);
        rssi_stride_ = stride;
    }
    // |a - b| == |b - a| exactly, so one value serves both directions and
    // equals what rssi_at() gives a transmit at these positions.
    const double position_m = endpoints_[slot].position_m;
    for (const auto& [name, other] : slots_) {
        const double rssi = rssi_at(std::abs(endpoints_[other].position_m - position_m));
        rssi_[slot * rssi_stride_ + other] = rssi;
        rssi_[other * rssi_stride_ + slot] = rssi;
    }
}

bool Medium::attached(const std::string& name) const {
    return slots_.contains(name);
}

double Medium::position(const std::string& name) const {
    const auto it = slots_.find(name);
    SA_REQUIRE(it != slots_.end(), "unknown medium endpoint: " + name);
    return endpoints_[it->second].position_m;
}

double Medium::loss_at(double distance_m) const noexcept {
    if (config_.range_m > 0.0 && distance_m > config_.range_m) {
        return 1.0;
    }
    double fade = 0.0;
    if (config_.range_m > 0.0) {
        const double ratio = distance_m / config_.range_m;
        switch (config_.fading) {
        case Fading::None: break;
        case Fading::Linear: fade = ratio; break;
        case Fading::Quadratic: fade = ratio * ratio; break;
        }
    }
    return config_.loss_probability + (1.0 - config_.loss_probability) * fade;
}

double Medium::rssi_at(double distance_m) noexcept {
    // Log-distance path loss: -40 dBm reference at 1 m, exponent 2.2 (open
    // road with some ground reflection). Purely a function of distance, so
    // every run and every domain count sees the same estimate.
    const double d = distance_m < 1.0 ? 1.0 : distance_m;
    return -40.0 - 10.0 * 2.2 * std::log10(d);
}

double Medium::loss_draw(const Frame& frame, std::uint64_t transmitter_hash,
                         std::uint64_t receiver_hash,
                         std::uint64_t origin_hash) const noexcept {
    std::uint64_t h = splitmix64(config_.seed);
    h = splitmix64(h ^ transmitter_hash);
    h = splitmix64(h ^ receiver_hash);
    h = splitmix64(h ^ static_cast<std::uint64_t>(frame.sent.ns()));
    h = splitmix64(h ^ origin_hash);
    h = splitmix64(h ^ (static_cast<std::uint64_t>(frame.seq) |
                   (static_cast<std::uint64_t>(frame.kind) << 32) |
                   (static_cast<std::uint64_t>(frame.hops) << 40)));
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

Frame Medium::cam(std::string sender, double position_m, double speed_mps) {
    Frame frame;
    frame.kind = FrameKind::Cam;
    frame.transmitter = sender;
    frame.origin = std::move(sender);
    frame.position_m = position_m;
    frame.speed_mps = speed_mps;
    return frame;
}

Medium::Payload& Medium::acquire(Sender& sender) {
    // Every event before the settled time has executed, so every payload
    // delivered before it is free again. The FIFO is in delivery-time
    // order: stop at the first payload still in flight.
    const sim::ShardedKernel* kernel = simulator_.shard();
    const Time settled = kernel != nullptr ? kernel->settled() : simulator_.now();
    while (sender.oldest != nullptr && sender.oldest->deliver_at < settled) {
        Payload* delivered = sender.oldest;
        sender.oldest = delivered->next;
        sender.pool.release(delivered);
    }
    Payload& payload = *sender.pool.acquire();
    payload.deliveries.clear();
    payload.next = nullptr;
    return payload;
}

void Medium::transmit(Frame frame) {
    const auto tx = slots_.find(frame.transmitter);
    SA_REQUIRE(tx != slots_.end(),
               "transmitter not attached to the medium: " + frame.transmitter);
    SA_REQUIRE(frame.ttl >= 1, "frame TTL exhausted before transmit");
    // The sending context: the domain whose window is executing, or the
    // medium's own simulator from quiescent contexts. Only its clock and its
    // payload pool are touched — loss draws are stateless hashes, never an
    // RNG stream, so the delivery trace is identical at every domain count.
    sim::Simulator* executing = sim::detail::executing_domain();
    SA_REQUIRE(executing == nullptr ||
                   (simulator_.shard() != nullptr &&
                    executing->shard() == simulator_.shard()),
               "Medium::transmit from a window of a simulator outside the "
               "medium's kernel");
    sim::Simulator& context = executing != nullptr ? *executing : simulator_;
    Sender& sender = executing != nullptr ? senders_[executing->shard_domain()]
                                          : senders_.back();
    if (frame.hops == 0) {
        frame.sent = context.now();
    }
    const std::uint32_t tx_slot = tx->second;
    const Endpoint& transmitter = endpoints_[tx_slot];
    const double* rssi_row = rssi_.data() + tx_slot * rssi_stride_;

    Payload& payload = acquire(sender);
    payload.frame = std::move(frame);
    payload.deliver_at = context.now() + config_.latency;
    const std::uint64_t origin_hash = fnv1a64(payload.frame.origin);
    std::uint64_t lost = 0;
    // Draw every receiver of one home in name order, then post that home's
    // share of the payload as one event.
    const auto fan_out = [&](const Home& home, std::span<const std::uint32_t> receivers) {
        const auto first = static_cast<std::uint32_t>(payload.deliveries.size());
        for (const std::uint32_t slot : receivers) {
            if (slot == tx_slot) {
                continue;
            }
            const Endpoint& rx = endpoints_[slot];
            const double distance = std::abs(rx.position_m - transmitter.position_m);
            const double p = loss_at(distance);
            if (p >= 1.0 ||
                (p > 0.0 && loss_draw(payload.frame, transmitter.name_hash,
                                      rx.name_hash, origin_hash) < p)) {
                ++lost;
                continue;
            }
            payload.deliveries.push_back(Delivery{slot, rx.generation, rssi_row[slot]});
        }
        const auto last = static_cast<std::uint32_t>(payload.deliveries.size());
        if (last > first) {
            sim::post(*home.simulator, payload.deliver_at,
                      [this, shared = &payload, first, last] {
                          deliver(*shared, first, last);
                      });
        }
    };
    if (payload.frame.next_hop.empty()) {
        for (const Home& home : homes_) {
            fan_out(home, home.receivers);
        }
    } else if (const auto hop = slots_.find(payload.frame.next_hop);
               hop != slots_.end()) {
        // Addressed relay: only the named hop listens.
        fan_out(homes_[endpoints_[hop->second].home], std::span(&hop->second, 1));
    }

    transmissions_.fetch_add(1, std::memory_order_relaxed);
    if (lost > 0) {
        losses_.fetch_add(lost, std::memory_order_relaxed);
    }
    if (payload.deliveries.empty()) {
        sender.pool.release(&payload);
        return;
    }
    deliveries_.fetch_add(payload.deliveries.size(), std::memory_order_relaxed);
    if (sender.oldest == nullptr) {
        sender.oldest = &payload;
    } else {
        sender.newest->next = &payload;
    }
    sender.newest = &payload;
}

void Medium::deliver(const Payload& payload, std::uint32_t first,
                     std::uint32_t last) {
    for (std::uint32_t i = first; i < last; ++i) {
        const Delivery& delivery = payload.deliveries[i];
        const Endpoint& rx = endpoints_[delivery.slot];
        // A receiver detached while the frame was in flight (quiescent
        // contexts only, so this read never races) — and any endpoint that
        // reused its slot since — misses the frame.
        if (rx.generation == delivery.generation) {
            rx.receiver(payload.frame, delivery.rssi_dbm);
        }
    }
}

} // namespace sa::v2v
