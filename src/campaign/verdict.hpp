#pragma once
// Per-cell verdicts: everything one campaign cell observably produced,
// rendered as a single schema-stable JSON line. The verdict is the unit of
// determinism — replaying a cell with the same seed must reproduce the JSON
// byte-for-byte (and therefore its FNV-1a fingerprint), across worker
// processes AND domain counts, which is why the domain count and raw
// executed-event totals are deliberately NOT part of the verdict (they
// describe the partitioning, not the simulated system).

#include <cstdint>
#include <string>
#include <vector>

#include "util/hash.hpp"

namespace sa::campaign {

/// Per-vehicle slice of a verdict (counters + follow-skill level + gateway
/// forwarding stats).
struct VehicleVerdict {
    std::string name;
    std::uint64_t jobs = 0;
    std::uint64_t misses = 0;
    std::uint64_t anomalies = 0;
    std::uint64_t problems_handled = 0;
    std::uint64_t problems_resolved = 0;
    double follow_level = -1.0; ///< follow-skill level; -1 when no graph
    std::uint64_t gw_forwarded = 0;
    std::uint64_t gw_dropped = 0;
};

/// Object-frame latency across the gateway (sense-bus TX to act-bus TX),
/// nearest-rank percentiles in nanoseconds; -1 when no pairs were observed.
struct LatencySummary {
    std::uint64_t count = 0;
    std::int64_t p50_ns = -1;
    std::int64_t p90_ns = -1;
    std::int64_t p99_ns = -1;
    std::int64_t max_ns = -1;
};

/// The outcome of one campaign cell.
struct CellVerdict {
    /// "ok", "violation" (a contract violation or exception surfaced from
    /// the run) or "crash" (synthesized by the driver when a worker process
    /// died; never produced in-process).
    std::string status = "ok";
    std::string reason; ///< violation message / crash description
    int signal = 0;     ///< terminating signal of a crashed worker
    std::int64_t at_ns = 0; ///< simulation progress at report time

    std::vector<VehicleVerdict> vehicles;
    bool platoon_formed = false;
    std::vector<std::string> members;
    std::vector<std::string> detached;
    std::vector<std::string> maneuvers; ///< ManeuverRecord::str() history
    LatencySummary latency;

    /// Synthesized verdict for a worker that terminated abnormally.
    [[nodiscard]] static CellVerdict crash(int signal);
    /// Synthesized verdict for a worker that exited without a verdict line.
    [[nodiscard]] static CellVerdict worker_error(std::string reason);

    /// One line, schema version 1, fixed key order, doubles at %.6f — the
    /// byte-stable form the fingerprint and the determinism property hash.
    [[nodiscard]] std::string json() const;
};

/// Failure identity used for dedup and shrink: "crash signal=<n>" for a
/// crash, else "<status> reason=<reason>". The axes of a cell are
/// deliberately NOT part of it, so shrink can move through the matrix while
/// "the same failure" stays recognisable.
[[nodiscard]] std::string failure_signature(const std::string& status,
                                            const std::string& reason, int signal);

/// FNV-1a 64-bit hash (the corpus fingerprint function).
using util::fnv1a64;

/// 16-digit lowercase hex rendering of a fingerprint.
[[nodiscard]] std::string fingerprint_hex(std::uint64_t fingerprint);

/// Extract the string value of `"key":"..."` from a verdict JSON line
/// (JSON-unescaped). Returns an empty string when the key is absent.
[[nodiscard]] std::string json_string_field(const std::string& json,
                                            const std::string& key);

/// Extract the integer value of `"key":N`. Returns `fallback` when absent.
[[nodiscard]] std::int64_t json_int_field(const std::string& json,
                                          const std::string& key,
                                          std::int64_t fallback = 0);

} // namespace sa::campaign
