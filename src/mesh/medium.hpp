#pragma once
// v2v::Medium — the shared radio substrate of the V2V mesh (§V: cooperating
// vehicles "share information" over channels that are lossy, delayed and
// range-limited). The Medium replaces the old platoon::V2vChannel and keeps
// only the physics: per-pair loss derived from along-track distance through
// a pluggable fading model, a constant propagation+stack latency, a hard
// radio range, and a deterministic log-distance RSSI estimate delivered with
// every frame. Everything protocol-shaped (neighbor tables, announcements,
// relaying) lives one layer up in mesh::MeshStack.
//
// API redesign: there is exactly ONE attach surface —
// attach(name, home, receiver) — and no implicit home-simulator rule. Every
// endpoint names the simulator its receiver runs on (its vehicle's domain
// under sharding, the only simulator otherwise); delivery is via sim::post,
// so a sharded run stays deterministic.
//
// Fan-out. One transmit() posts one event per home domain that has
// receivers, carrying a pooled payload: the frame once, plus a (slot,
// generation, RSSI) list in endpoint-name order. The event captures
// {medium, payload, range}, which fits the queue's inline action buffer.
// Endpoints are dense slots whose generation detach() bumps, so delivery
// does no name lookup and a receiver detached in flight misses the frame.
// Each sending context (every domain worker, plus the quiescent context)
// owns its payload pool and recycles a payload once its delivery time lies
// before the kernel's settled() time (the single queue's now()), so
// steady-state delivery takes no lock and no heap allocation. docs/MESH.md
// lists the resulting contract (a receiver's stop() takes effect after the
// whole fan-out; executed_events() counts fan-outs, not deliveries).
//
// Sharding. The Medium is the canonical cross-domain link: its latency is
// declared as every domain's lookahead bound (the window the domains may
// race ahead). transmit() may run concurrently on several domain workers;
// membership and positions are therefore frozen while a sharded window is
// executing — attach()/detach()/move() from inside a window is a loud
// ContractViolation (mirroring the schedule_periodic foreign-thread
// contract), mutate only between runs or from script barriers.
//
// Determinism across domain counts. Loss draws do NOT use the per-domain RNG
// streams (domains 1+ are splitmix64-derived, so their streams differ
// between 1/2/4-domain runs of the same seed). Each draw is a stateless hash
// of (medium seed, transmitter, receiver, send time, origin, seq, kind):
// thread-safe without shared mutable state, reproducible from the seed, and
// byte-identical regardless of how vehicles are partitioned onto domains —
// the property the mesh determinism suite locks in.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "util/pool.hpp"
#include "util/stable_vector.hpp"

namespace sa::v2v {

using sim::Duration;
using sim::Time;

/// What a frame is to the mesh layer. Announce frames build neighbor tables
/// and routes; Cam frames carry the cooperative-awareness payload.
enum class FrameKind : std::uint8_t { Announce, Cam };

[[nodiscard]] const char* to_string(FrameKind kind) noexcept;

/// One radio frame. A single-hop CAM (the old V2vBeacon) is a Frame with
/// origin == transmitter, ttl 1 and no destination; the mesh layer reuses
/// the same shape for TTL'd announcements and addressed multi-hop relays.
struct Frame {
    FrameKind kind = FrameKind::Cam;
    std::string transmitter;  ///< per-hop radio sender (the relaying node)
    std::string origin;       ///< original source of the payload
    std::string destination;  ///< unicast target; empty = broadcast payload
    std::string next_hop;     ///< addressed relay target; empty = all in range
    std::uint32_t seq = 0;    ///< origin's sequence number (dedup + PRR)
    std::uint32_t ttl = 1;    ///< remaining transmissions (1 = no relay)
    std::uint32_t hops = 0;   ///< transmissions already taken
    double position_m = 0.0;  ///< origin's claimed along-track position
    double speed_mps = 0.0;   ///< origin's claimed speed
    Time sent;                ///< stamped by the medium at origination
};

/// Distance-dependent loss shape. The fading fraction f(d) ramps from 0 at
/// the transmitter to 1 at the radio range; the effective loss probability
/// of a pair at distance d is  base + (1 - base) * f(d).
enum class Fading : std::uint8_t {
    None,      ///< f(d) = 0 inside the range (hard-shell radio)
    Linear,    ///< f(d) = d / range
    Quadratic, ///< f(d) = (d / range)^2
};

[[nodiscard]] const char* to_string(Fading fading) noexcept;

struct MediumConfig {
    /// Distance-independent base loss probability in [0, 1].
    double loss_probability = 0.0;
    /// Constant propagation + stack latency; becomes every domain's
    /// lookahead on a sharded kernel (must be > 0 there).
    Duration latency = Duration::ms(20);
    /// Hard radio range in meters; 0 = unlimited (every pair in range).
    double range_m = 0.0;
    /// Distance-dependent loss shape; requires a finite range.
    Fading fading = Fading::None;
    /// Seed of the stateless loss-draw hash (independent of the simulator
    /// seed so the same traffic pattern can be re-rolled in isolation).
    std::uint64_t seed = 0x5AA5F00DULL;
};

/// Shared lossy/latency/range substrate. See the header comment.
class Medium {
public:
    /// Receiver callback: the delivered frame plus the deterministic RSSI
    /// estimate of the transmitter->receiver link at delivery.
    using Receiver = std::function<void(const Frame&, double rssi_dbm)>;

    Medium(sim::Simulator& simulator, MediumConfig config = {});

    Medium(const Medium&) = delete;
    Medium& operator=(const Medium&) = delete;

    /// Attach an endpoint: delivered frames execute on `home` (its domain
    /// worker under sharding). `home` must be the medium's simulator or a
    /// domain of the same sharded kernel. Quiescent contexts only.
    void attach(const std::string& name, sim::Simulator& home, Receiver receiver,
                double position_m = 0.0);
    /// Detach an endpoint. Quiescent contexts only.
    void detach(const std::string& name);
    /// Move an endpoint along the track. Quiescent contexts only (script
    /// barriers are the sanctioned way to move vehicles mid-run).
    void move(const std::string& name, double position_m);

    [[nodiscard]] bool attached(const std::string& name) const;
    [[nodiscard]] double position(const std::string& name) const;
    /// Attached endpoint names, sorted (map order).
    [[nodiscard]] std::vector<std::string> members() const;

    /// Transmit one frame from frame.transmitter (which must be attached).
    /// Every other endpoint — or only frame.next_hop when set — draws an
    /// independent loss and receives the frame latency later on its home.
    /// Fresh frames (hops == 0) are stamped with the sending context's
    /// clock; relayed frames keep their origination timestamp.
    void transmit(Frame frame);

    /// Convenience: a single-hop CAM broadcast frame (the old V2vBeacon).
    [[nodiscard]] static Frame cam(std::string sender, double position_m,
                                   double speed_mps);

    // --- physics (deterministic, exposed for tests and lint) ---------------
    /// Effective loss probability at `distance_m` (1.0 beyond the range).
    [[nodiscard]] double loss_at(double distance_m) const noexcept;
    /// Log-distance path-loss RSSI estimate: -40 dBm at 1 m, exponent 2.2.
    [[nodiscard]] static double rssi_at(double distance_m) noexcept;

    [[nodiscard]] const MediumConfig& config() const noexcept { return config_; }
    [[nodiscard]] sim::Simulator& simulator() noexcept { return simulator_; }

    [[nodiscard]] std::uint64_t transmissions() const noexcept {
        return transmissions_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t deliveries() const noexcept {
        return deliveries_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t losses() const noexcept {
        return losses_.load(std::memory_order_relaxed);
    }

private:
    /// An attached endpoint in its dense slot. Slots are recycled after
    /// detach(); the generation, bumped by every detach(), tells a fan-out
    /// in flight whether the slot still holds the receiver it was sent to.
    struct Endpoint {
        const std::string* name = nullptr; ///< its key in slots_
        Receiver receiver;
        double position_m = 0.0;
        std::uint64_t name_hash = 0; ///< FNV-1a of the name (loss draws)
        std::size_t home = 0;        ///< index into homes_
        std::uint32_t generation = 0;
    };
    /// A home simulator and its receivers: slots in endpoint-name order.
    struct Home {
        sim::Simulator* simulator = nullptr;
        std::vector<std::uint32_t> receivers;
    };
    struct Delivery {
        std::uint32_t slot;
        std::uint32_t generation; ///< the slot's generation at transmit
        double rssi_dbm;
    };
    /// One transmit in flight: the frame once, and its deliveries grouped
    /// by home (endpoint-name order within a home). Each home's fan-out
    /// event delivers its own contiguous range of `deliveries`.
    struct Payload {
        Frame frame;
        Time deliver_at;
        std::vector<Delivery> deliveries;
        Payload* next = nullptr; ///< the sender's next-younger payload
    };
    /// A sending context's payloads: a pool plus the in-flight FIFO, which
    /// is in delivery-time order because the context's clock is monotonic.
    /// Only the owning context touches it. Cache-line aligned so domain
    /// workers transmitting concurrently do not share a line.
    struct alignas(64) Sender {
        util::Pool<Payload> pool;
        Payload* oldest = nullptr;
        Payload* newest = nullptr;
    };

    /// Loud ContractViolation when called from inside a sharded window —
    /// transmit() on other workers reads membership and positions lock-free.
    void require_quiescent(const char* operation) const;
    /// Stateless loss draw in [0, 1): a hash of the pair, the send instant
    /// and the frame identity. Identical across domain counts by design.
    [[nodiscard]] double loss_draw(const Frame& frame, std::uint64_t transmitter_hash,
                                   std::uint64_t receiver_hash,
                                   std::uint64_t origin_hash) const noexcept;
    /// Recycle the sender's delivered payloads, then hand out an empty one.
    [[nodiscard]] Payload& acquire(Sender& sender);
    /// The fan-out event: serve deliveries [first, last) of `payload`.
    void deliver(const Payload& payload, std::uint32_t first, std::uint32_t last);

    sim::Simulator& simulator_;
    MediumConfig config_;
    /// Name -> slot: membership in name order, and the once-per-transmit
    /// resolution of the transmitter and the addressed next hop.
    std::map<std::string, std::uint32_t> slots_;
    /// Stable addresses: on a single queue a receiver may attach endpoints
    /// while its own callback is running.
    util::StableVector<Endpoint> endpoints_;
    std::vector<std::uint32_t> free_slots_;
    /// One per domain on a sharded kernel, otherwise just the simulator.
    std::vector<Home> homes_;
    /// One per domain worker, plus the quiescent context (the last entry).
    std::vector<Sender> senders_;
    // Relaxed atomics: transmissions may run concurrently on several domain
    // workers; the counts are order-free sums, updated once per transmit.
    std::atomic<std::uint64_t> transmissions_{0};
    std::atomic<std::uint64_t> deliveries_{0};
    std::atomic<std::uint64_t> losses_{0};
};

} // namespace sa::v2v
