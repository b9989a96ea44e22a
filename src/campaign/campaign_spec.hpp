#pragma once
// sa::campaign — deterministic scenario-campaign descriptions. A campaign is
// a parameterized matrix over the canonical platoon scenario template:
// weather and fault injections × maneuver policies × topologies × domain
// counts × platoon sizes × a seed range, declared in a compact text form so
// campaigns are data, not recompiles. expand() enumerates the matrix into
// CellConfigs in a fixed nested-loop order; every cell is fully described by
// its own text block (CellConfig::str()/parse() round-trip), which is what
// the failing-seed corpus stores.
//
// Campaign grammar (tokens follow the shared lexical rules in
// util/lexer.hpp; statements are ';'-terminated and each appears at most
// once per block; malformed text throws util::ParseError with its line):
//
//   campaign <name> {
//     template platoon;             // scenario template (only "platoon")
//     vehicles <n> [<n> ...];       // axis: platoon sizes, each in [2, 8]
//     duration <n><unit>;           // simulated time per cell, one token
//                                   // (400ms, 2.5ms; units ns/us/ms/s)
//     spec "<path>";                // optional skill-graph spec file
//     weather <w> [<w> ...];        // axis: clear fog rain winter
//     fault <f> [<f> ...];          // axis: none fog_blind v2v_blackout
//                                   //       storm overrun sensor_drift
//                                   //       misuse crash
//     policy <p> [<p> ...];         // axis: steady cautious eager
//     topology <t> [<t> ...];       // axis: dual_bus bridged mesh lossy_mesh
//     domains <n> [<n> ...];        // axis: ECU domain counts, each in [1, 8]
//     seeds <lo>..<hi>;             // inclusive seed range (64-bit)
//     learned <n><unit> [none];     // optional: learned monitor on every
//                                   // vehicle, with this warm-up; "none"
//                                   // disables metric auto-resolution
//     mesh_range <n>;               // optional: radio range in meters for
//                                   // mesh topologies (0 = template default)
//     mesh_ttl <n>;                 // optional: announcement beacon TTL for
//                                   // mesh topologies (0 = template default)
//   }
//
// A cell block uses the same statements with singular values plus
// `campaign <name>;` and `seed <n>;`:
//
//   cell { campaign smoke; template platoon; vehicles 3; duration 800ms;
//          weather fog; fault misuse; policy steady; topology dual_bus;
//          domains 2; seed 7; }

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "util/lexer.hpp"

namespace sa::campaign {

/// The campaign-specific name of util::ParseError, kept for callers that
/// catch it under this name (the perfbench worker).
using CampaignParseError = util::ParseError;

/// Weather axis: applied to *every* vehicle as capability-quality downgrades
/// (radar / v2v_link source levels) at duration/4 — the preset vehicles have
/// no closed driving loop, so weather acts where the maneuver engine looks.
enum class Weather { Clear, Fog, Rain, Winter };

/// Fault axis: injected on the second vehicle ("beta") at duration/2.
/// SensorDrift is a slow stepwise radar-capability decay that never crosses
/// a maneuver threshold — the axis only matters to cells with a learned
/// monitor. Misuse and Crash are harness probes: Misuse raises a
/// deterministic ContractViolation inside a script (exercising violation
/// capture), Crash calls abort() (exercising worker-process isolation).
enum class Fault {
    None, FogBlind, V2vBlackout, Storm, Overrun, SensorDrift, Misuse, Crash
};

/// Maneuver-policy axis: three ManeuverPolicy presets (thresholds and
/// check periods) — see campaign::maneuver_policy_for().
enum class PolicyKind { Steady, Cautious, Eager };

/// Topology axis: the dual-bus zonal preset alone, with a scenario-level
/// backbone bridge forwarding object frames from the first vehicle's sense
/// bus into the second vehicle's sense bus, or with a multi-hop V2V mesh
/// (range-limited v2v::Medium + a MeshStack per vehicle). Mesh uses a clean
/// radio (loss only from range/fading); LossyMesh adds a base loss floor.
enum class Topology { DualBus, Bridged, Mesh, LossyMesh };

/// True for topologies that put a V2V mesh under the platoon.
[[nodiscard]] bool topology_is_mesh(Topology topology) noexcept;

[[nodiscard]] const char* to_string(Weather weather) noexcept;
[[nodiscard]] const char* to_string(Fault fault) noexcept;
[[nodiscard]] const char* to_string(PolicyKind policy) noexcept;
[[nodiscard]] const char* to_string(Topology topology) noexcept;
[[nodiscard]] bool weather_from_string(const std::string& text, Weather& out);
[[nodiscard]] bool fault_from_string(const std::string& text, Fault& out);
[[nodiscard]] bool policy_from_string(const std::string& text, PolicyKind& out);
[[nodiscard]] bool topology_from_string(const std::string& text, Topology& out);

/// True for fault axes that probe the harness itself rather than the
/// modelled system (Misuse throws, Crash aborts the worker process).
[[nodiscard]] bool fault_is_harness_probe(Fault fault) noexcept;

/// Render a duration with the largest exact unit ("400ms", "250us", "2s").
[[nodiscard]] std::string duration_str(sim::Duration duration);

/// The repeat rule of campaign and cell blocks and of a corpus entry's
/// expectations: a statement given twice would silently replace the first
/// (a campaign would drop an axis, a cell would replay another seed), so
/// throw util::ParseError at `line` when `statement` is already in `seen`.
void reject_repeat(std::set<std::string>& seen, const std::string& statement, int line);

/// One fully instantiated campaign cell. Everything a run needs is here;
/// str() serializes the canonical `cell { ... }` block and parse() reads it
/// back (corpus entries store exactly this).
struct CellConfig {
    std::string campaign = "adhoc";
    std::string scenario_template = "platoon";
    std::size_t vehicles = 3;
    sim::Duration duration = sim::Duration::ms(400);
    std::string spec_file; ///< empty: the builtin platoon_follow spec
    Weather weather = Weather::Clear;
    Fault fault = Fault::None;
    PolicyKind policy = PolicyKind::Steady;
    Topology topology = Topology::DualBus;
    std::size_t domains = 1;
    std::uint64_t seed = 1;
    /// Learned monitor on every vehicle when positive (zero = off). Only
    /// serialized when enabled, so pre-existing cell blocks stay
    /// byte-identical.
    sim::Duration learned_warmup = sim::Duration::zero();
    /// Disable metric auto-resolution (`learned ... none;` — a deliberately
    /// broken configuration surfaced by lint rule LRN001).
    bool learned_no_metrics = false;
    /// Radio range in meters for mesh topologies (0 = template default).
    /// Only serialized when non-zero, so pre-existing cells stay identical.
    std::uint64_t mesh_range_m = 0;
    /// Announcement beacon TTL for mesh topologies (0 = template default).
    std::uint64_t mesh_ttl = 0;

    bool operator==(const CellConfig&) const = default;

    /// One-line identity, e.g. "smoke vehicles=3 duration=800ms weather=fog
    /// fault=misuse policy=steady topology=dual_bus domains=2 seed=7".
    [[nodiscard]] std::string id() const;
    /// Canonical multi-line `cell { ... }` block; parse(str()) round-trips.
    [[nodiscard]] std::string str() const;
    /// Parse exactly one `cell { ... }` block and nothing after it. A
    /// statement given twice is a util::ParseError at the repeat's line.
    [[nodiscard]] static CellConfig parse(const std::string& text);
    /// Parse one `cell { ... }` block from `lex`, leaving what follows it.
    [[nodiscard]] static CellConfig parse(util::Lexer& lex);
};

/// Inclusive seed range of a campaign ("seeds 1..16;").
struct SeedRange {
    std::uint64_t lo = 1;
    std::uint64_t hi = 1;

    [[nodiscard]] std::uint64_t count() const noexcept {
        return hi >= lo ? hi - lo + 1 : 0;
    }
};

/// A parsed campaign matrix: the scalar statements as one CellConfig, the
/// axis values and the seed range.
class CampaignSpec {
public:
    /// Parse exactly one `campaign <name> { ... }` block. A statement given
    /// twice is a util::ParseError at the repeat's line.
    [[nodiscard]] static CampaignSpec parse(const std::string& text);

    /// Replace the seed range.
    CampaignSpec& seeds(std::uint64_t lo, std::uint64_t hi);
    /// Replace the skill-graph spec file every cell loads (sa_campaign
    /// resolves it against the campaign file's directory).
    CampaignSpec& spec_file(std::string path);

    /// The scalar statements (name as `campaign`, template, duration, spec,
    /// learned, mesh_range, mesh_ttl): expand() starts every cell from a
    /// copy of it and sets the axis values and the seed.
    [[nodiscard]] const CellConfig& cell() const noexcept { return cell_; }
    [[nodiscard]] const std::vector<std::size_t>& vehicles() const noexcept {
        return vehicles_;
    }
    [[nodiscard]] const std::vector<Weather>& weathers() const noexcept {
        return weathers_;
    }
    [[nodiscard]] const std::vector<Fault>& faults() const noexcept { return faults_; }
    [[nodiscard]] const std::vector<PolicyKind>& policies() const noexcept {
        return policies_;
    }
    [[nodiscard]] const std::vector<Topology>& topologies() const noexcept {
        return topologies_;
    }
    [[nodiscard]] const std::vector<std::size_t>& domains() const noexcept {
        return domains_;
    }
    [[nodiscard]] SeedRange seed_range() const noexcept { return seeds_; }

    /// Matrix size: the product of every axis (0 when the seed range is
    /// empty — lint flags that as CMP002).
    [[nodiscard]] std::uint64_t cell_count() const noexcept;

    /// Enumerate the matrix in the fixed nested-loop order weather → fault →
    /// policy → topology → domains → vehicles → seed (seed innermost), so
    /// cell indices are stable across runs and machines.
    [[nodiscard]] std::vector<CellConfig> expand() const;

    /// Serialize to the campaign grammar; parse(str()) round-trips.
    [[nodiscard]] std::string str() const;

private:
    CellConfig cell_;
    std::vector<std::size_t> vehicles_{3};
    std::vector<Weather> weathers_{Weather::Clear};
    std::vector<Fault> faults_{Fault::None};
    std::vector<PolicyKind> policies_{PolicyKind::Steady};
    std::vector<Topology> topologies_{Topology::DualBus};
    std::vector<std::size_t> domains_{1};
    SeedRange seeds_{};
};

} // namespace sa::campaign
