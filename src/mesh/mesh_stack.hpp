#pragma once
// mesh::MeshStack — the per-vehicle protocol endpoint of the V2V mesh, built
// on the v2v::Medium radio substrate. Three mechanisms, borrowed from proven
// shapes:
//
//  * Neighbor table with link-quality estimation (the Contiki tree-routing
//    idiom): every frame heard from a transmitter refreshes an EWMA RSSI
//    estimate; gaps in a neighbor's own announcement sequence numbers feed
//    an EWMA packet-reception-ratio (PRR). Entries age out after 600 ms of
//    silence.
//
//  * TTL'd self-announcements with selective on-announcement (the serval-dna
//    overlay idiom): each stack periodically announces itself; a stack
//    hearing a NEW announcement (per-origin sequence dedup) re-transmits it
//    once with TTL-1, so presence floods the mesh exactly once per beacon
//    instead of exponentially. Announcements double as route discovery:
//    hearing origin O via transmitter T records a candidate route O-via-T
//    with the frame's hop count.
//
//  * Fewest-hops next-hop choice among the candidate routes for unicast CAM
//    relay beyond radio range. Relays are addressed (Frame::next_hop), so a
//    relayed CAM crosses the mesh as a chain of unicasts, not a flood.
//
// Determinism. All mutable state lives on the stack's home simulator: the
// medium posts every delivery to the home domain, the announcement beacon is
// a home-domain periodic, and aging keys off the home clock. Under sharding
// the state is therefore single-threaded by construction (TSan-clean), and
// because the medium's loss draws are stateless hashes, neighbor tables,
// chosen routes and relay traces reproduce byte-identically at every domain
// count.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "mesh/medium.hpp"

namespace sa::mesh {

using sim::Duration;
using sim::Time;

struct MeshConfig {
    /// Announcement TTL: how many transmissions a self-announcement may
    /// take, i.e. the hop radius of presence discovery. Must cover the
    /// mesh's hop diameter (lint rule MSH002 checks this statically).
    /// Unicast CAM sends carry the same TTL.
    std::uint32_t beacon_ttl = 4;
    /// First firing of the 100 ms self-announcement. Stagger phases across
    /// vehicles to keep announcement instants off shared timestamps.
    Duration beacon_phase = Duration::zero();
};

/// One direct-link neighbor (keyed by transmitter name).
struct Neighbor {
    double rssi_dbm = 0.0; ///< EWMA over every frame heard from this node
    double prr = 1.0;      ///< EWMA packet-reception ratio of its announces
    std::uint32_t last_seq = 0; ///< newest announce seq heard (PRR gaps)
    std::uint64_t frames_heard = 0;
    Time last_heard;
};

/// One candidate route to an origin via a direct neighbor.
struct RouteCandidate {
    std::uint32_t hops = 0; ///< transmissions origin -> here along this path
    Time last_update;
};

class MeshStack {
public:
    /// CAM payloads addressed to (or broadcast past) this stack.
    using CamHandler = std::function<void(const v2v::Frame&)>;

    /// Attaches `name` to the medium at `position_m` and arms the periodic
    /// self-announcement on `home`. Build-time only (quiescent contexts):
    /// the medium's attach contract applies.
    MeshStack(std::string name, v2v::Medium& medium, sim::Simulator& home,
              MeshConfig config = {}, double position_m = 0.0);
    /// Cancels the beacon and detaches from the medium (quiescent only).
    ~MeshStack();

    MeshStack(const MeshStack&) = delete;
    MeshStack& operator=(const MeshStack&) = delete;


    /// Deliver CAM payloads to `handler` (home-domain execution). Set it
    /// before the run (or from a script barrier).
    void on_cam(CamHandler handler) { cam_handler_ = std::move(handler); }

    /// Unicast CAM toward `destination`, relayed hop by hop along each
    /// stack's chosen route. Returns false (and counts cams_unroutable)
    /// when no route to the destination is known yet.
    bool send_cam(const std::string& destination);

    /// The chosen next hop toward `destination` (fewest hops; ties go to
    /// the smallest neighbor name), or nullopt when no live candidate route
    /// exists.
    [[nodiscard]] std::optional<std::string>
    next_hop(const std::string& destination) const;

    [[nodiscard]] const std::map<std::string, Neighbor>& neighbors() const noexcept {
        return neighbors_;
    }
    /// Candidate routes per origin (via -> candidate).
    [[nodiscard]] const std::map<std::string, std::map<std::string, RouteCandidate>>&
    routes() const noexcept {
        return routes_;
    }

    /// Canonical text rendering of the neighbor table and the chosen route
    /// per known origin — the byte-identical determinism fingerprint the
    /// mesh suite compares across domain counts.
    [[nodiscard]] std::string table_str() const;

    // --- counters (home-domain writes; read when quiescent) ----------------
    [[nodiscard]] std::uint64_t announces_sent() const noexcept {
        return announces_sent_;
    }
    [[nodiscard]] std::uint64_t announces_relayed() const noexcept {
        return announces_relayed_;
    }
    [[nodiscard]] std::uint64_t cams_sent() const noexcept { return cams_sent_; }
    [[nodiscard]] std::uint64_t cams_received() const noexcept {
        return cams_received_;
    }
    [[nodiscard]] std::uint64_t cams_relayed() const noexcept {
        return cams_relayed_;
    }
    /// CAMs that needed a relay but found no route (here or mid-path).
    [[nodiscard]] std::uint64_t cams_unroutable() const noexcept {
        return cams_unroutable_;
    }

private:
    void handle_frame(const v2v::Frame& frame, double rssi_dbm);
    void handle_announce(const v2v::Frame& frame);
    void handle_cam(const v2v::Frame& frame);
    /// Periodic beacon tick: age the tables, then announce self.
    void beacon_tick();
    void age_tables(Time now);

    std::string name_;
    v2v::Medium& medium_;
    sim::Simulator& home_;
    MeshConfig config_;
    CamHandler cam_handler_;
    std::uint64_t beacon_id_ = 0; ///< periodic handle
    std::uint32_t announce_seq_ = 0;
    std::uint32_t cam_seq_ = 0;

    std::map<std::string, Neighbor> neighbors_;
    std::map<std::string, std::map<std::string, RouteCandidate>> routes_;
    /// Per-origin newest announce seq seen (selective on-announcement).
    std::map<std::string, std::uint32_t> origin_seq_;

    std::uint64_t announces_sent_ = 0;
    std::uint64_t announces_relayed_ = 0;
    std::uint64_t cams_sent_ = 0;
    std::uint64_t cams_received_ = 0;
    std::uint64_t cams_relayed_ = 0;
    std::uint64_t cams_unroutable_ = 0;
};

} // namespace sa::mesh
