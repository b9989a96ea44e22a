#include "mesh/mesh_stack.hpp"

#include "util/assert.hpp"
#include "util/string_util.hpp"

namespace sa::mesh {

namespace {

/// Self-announcement period.
constexpr Duration kBeaconPeriod = Duration::ms(100);
/// Neighbor/route entries older than this are dropped at the next beacon
/// tick (EWMA aging horizon).
constexpr Duration kNeighborTtl = Duration::ms(600);
/// EWMA smoothing factors (weight of the newest sample).
constexpr double kRssiAlpha = 0.3;
constexpr double kPrrAlpha = 0.3;

} // namespace

MeshStack::MeshStack(std::string name, v2v::Medium& medium, sim::Simulator& home,
                     MeshConfig config, double position_m)
    : name_(std::move(name)), medium_(medium), home_(home), config_(config) {
    SA_REQUIRE(config_.beacon_ttl >= 1, "beacon TTL must be at least 1");
    medium_.attach(
        name_, home_,
        [this](const v2v::Frame& frame, double rssi_dbm) {
            handle_frame(frame, rssi_dbm);
        },
        position_m);
    beacon_id_ = home_.schedule_periodic(
        kBeaconPeriod, [this] { beacon_tick(); }, config_.beacon_phase);
}

MeshStack::~MeshStack() {
    home_.cancel_periodic(beacon_id_);
    if (medium_.attached(name_)) {
        medium_.detach(name_);
    }
}

void MeshStack::handle_frame(const v2v::Frame& frame, double rssi_dbm) {
    // Runs on the home domain (the medium posts deliveries there), so every
    // table mutation below is single-threaded by construction.
    const Time now = home_.now();
    auto [it, fresh] = neighbors_.try_emplace(frame.transmitter);
    Neighbor& neighbor = it->second;
    if (fresh) {
        neighbor.rssi_dbm = rssi_dbm;
    } else {
        neighbor.rssi_dbm += kRssiAlpha * (rssi_dbm - neighbor.rssi_dbm);
    }
    ++neighbor.frames_heard;
    neighbor.last_heard = now;
    if (frame.kind == v2v::FrameKind::Announce &&
        frame.origin == frame.transmitter) {
        // PRR from gaps in the neighbor's own announcement sequence: hearing
        // seq s after seq l means 1 of (s - l) announcements got through.
        if (neighbor.last_seq != 0 && frame.seq > neighbor.last_seq) {
            const double sample =
                1.0 / static_cast<double>(frame.seq - neighbor.last_seq);
            neighbor.prr += kPrrAlpha * (sample - neighbor.prr);
        }
        if (frame.seq > neighbor.last_seq) {
            neighbor.last_seq = frame.seq;
        }
    }
    if (frame.kind == v2v::FrameKind::Announce) {
        handle_announce(frame);
    } else {
        handle_cam(frame);
    }
}

void MeshStack::handle_announce(const v2v::Frame& frame) {
    if (frame.origin == name_) {
        return; // our own announcement echoed back through a relay
    }
    // Route discovery: origin is reachable via the transmitter in hops+1
    // transmissions. Every copy updates the candidate set — a stale or
    // duplicate seq still proves the path exists.
    routes_[frame.origin][frame.transmitter] =
        RouteCandidate{frame.hops + 1, home_.now()};
    // Selective on-announcement (serval idiom): re-transmit only the FIRST
    // copy of a new per-origin sequence number, so one beacon crosses the
    // mesh once instead of multiplying at every node.
    auto [it, fresh] = origin_seq_.try_emplace(frame.origin, 0);
    if (!fresh && frame.seq <= it->second) {
        return;
    }
    it->second = frame.seq;
    if (frame.ttl > 1) {
        v2v::Frame relay = frame;
        relay.transmitter = name_;
        relay.ttl = frame.ttl - 1;
        relay.hops = frame.hops + 1;
        medium_.transmit(std::move(relay));
        ++announces_relayed_;
    }
}

void MeshStack::handle_cam(const v2v::Frame& frame) {
    if (frame.destination.empty() || frame.destination == name_) {
        ++cams_received_;
        if (cam_handler_) {
            cam_handler_(frame);
        }
        return;
    }
    // We are the addressed next hop of someone else's unicast: relay it
    // along our own best route, burning one TTL.
    if (frame.ttl <= 1) {
        ++cams_unroutable_;
        return;
    }
    const auto hop = next_hop(frame.destination);
    if (!hop.has_value()) {
        ++cams_unroutable_;
        return;
    }
    v2v::Frame relay = frame;
    relay.transmitter = name_;
    relay.next_hop = *hop;
    relay.ttl = frame.ttl - 1;
    relay.hops = frame.hops + 1;
    medium_.transmit(std::move(relay));
    ++cams_relayed_;
}

void MeshStack::beacon_tick() {
    age_tables(home_.now());
    v2v::Frame frame;
    frame.kind = v2v::FrameKind::Announce;
    frame.transmitter = name_;
    frame.origin = name_;
    frame.seq = ++announce_seq_;
    frame.ttl = config_.beacon_ttl;
    frame.position_m = medium_.position(name_);
    medium_.transmit(std::move(frame));
    ++announces_sent_;
}

void MeshStack::age_tables(Time now) {
    const std::int64_t ttl = kNeighborTtl.count_ns();
    for (auto it = neighbors_.begin(); it != neighbors_.end();) {
        if (now.ns() - it->second.last_heard.ns() > ttl) {
            it = neighbors_.erase(it);
        } else {
            ++it;
        }
    }
    for (auto origin = routes_.begin(); origin != routes_.end();) {
        auto& candidates = origin->second;
        for (auto it = candidates.begin(); it != candidates.end();) {
            if (now.ns() - it->second.last_update.ns() > ttl ||
                !neighbors_.contains(it->first)) {
                it = candidates.erase(it);
            } else {
                ++it;
            }
        }
        if (candidates.empty()) {
            origin = routes_.erase(origin);
        } else {
            ++origin;
        }
    }
}

bool MeshStack::send_cam(const std::string& destination) {
    SA_REQUIRE(destination != name_, "a CAM cannot be addressed to its sender");
    const auto hop = next_hop(destination);
    if (!hop.has_value()) {
        ++cams_unroutable_;
        return false;
    }
    v2v::Frame frame;
    frame.kind = v2v::FrameKind::Cam;
    frame.transmitter = name_;
    frame.origin = name_;
    frame.destination = destination;
    frame.next_hop = *hop;
    frame.seq = ++cam_seq_;
    frame.ttl = config_.beacon_ttl;
    frame.position_m = medium_.position(name_);
    medium_.transmit(std::move(frame));
    ++cams_sent_;
    return true;
}

std::optional<std::string>
MeshStack::next_hop(const std::string& destination) const {
    const auto routes = routes_.find(destination);
    if (routes == routes_.end()) {
        return std::nullopt;
    }
    const std::string* best = nullptr;
    std::uint32_t best_hops = 0;
    for (const auto& [via, candidate] : routes->second) {
        if (!neighbors_.contains(via)) {
            continue; // first hop aged out; candidate dies at the next tick
        }
        // Strictly-fewer keeps the lexicographically smallest neighbor on
        // ties (map iteration order), so the choice is deterministic.
        if (best == nullptr || candidate.hops < best_hops) {
            best = &via;
            best_hops = candidate.hops;
        }
    }
    if (best == nullptr) {
        return std::nullopt;
    }
    return *best;
}

std::string MeshStack::table_str() const {
    std::string out = name_ + ":\n";
    for (const auto& [name, neighbor] : neighbors_) {
        out += format("  nbr %s rssi=%.1f prr=%.3f heard=%llu\n", name.c_str(),
                      neighbor.rssi_dbm, neighbor.prr,
                      static_cast<unsigned long long>(neighbor.frames_heard));
    }
    for (const auto& [origin, candidates] : routes_) {
        const auto hop = next_hop(origin);
        if (!hop.has_value()) {
            continue;
        }
        out += format("  route %s via %s hops=%u\n", origin.c_str(),
                      hop->c_str(), candidates.at(*hop).hops);
    }
    return out;
}

} // namespace sa::mesh
