#pragma once
// The campaign driver: expands a CampaignSpec, fans the cells across worker
// processes (forked copies of the driver, kept across cells — one crashing
// cell kills its worker, never the driver), aggregates the per-cell
// verdicts into a schema-stable report, and shrinks every new failure into
// a minimal corpus reproducer. An in-process mode (worker_exe empty) runs
// cells on the driver's own thread for tests and replay of non-crash
// entries.

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/campaign_spec.hpp"
#include "campaign/corpus.hpp"
#include "campaign/verdict.hpp"

namespace sa::campaign {

struct DriverOptions {
    /// Concurrent worker processes (in-process mode ignores this).
    std::size_t jobs = 4;
    /// Non-empty runs cells in forked workers, which are copies of this
    /// process and never exec: the value is not read ("/proc/self/exe"
    /// names what the workers are). Empty runs every cell in-process —
    /// which REQUIREs a matrix without Crash cells.
    std::string worker_exe;
    /// Shrink new failures before recording them (drop matrix axes while
    /// the failure signature persists).
    bool shrink = true;
    /// Wall-clock budget in seconds; 0 = run the whole matrix. When the
    /// budget expires, remaining cells are skipped (and counted).
    std::uint64_t budget_seconds = 0;
    /// Failure signatures already covered by the committed corpus: matching
    /// failures count as known, everything else becomes a new reproducer.
    std::vector<std::string> known_signatures;
};

/// One executed cell: the config plus the verdict's canonical JSON line
/// (byte-stable; the corpus fingerprint hashes exactly this).
struct CellResult {
    CellConfig cell;
    std::string verdict_json;
    std::string status;
    std::string reason;
    int signal = 0;

    [[nodiscard]] bool failed() const noexcept { return status != "ok"; }
    [[nodiscard]] std::string signature() const;
};

/// Aggregated campaign outcome. Deterministic given the per-cell verdicts:
/// results are ordered by cell index regardless of completion order.
struct CampaignReport {
    std::string campaign;
    std::uint64_t cells = 0;    ///< matrix size
    std::uint64_t executed = 0; ///< cells actually run
    std::uint64_t skipped = 0;  ///< cells dropped by the wall-clock budget
    std::uint64_t ok = 0;
    std::uint64_t violations = 0;
    std::uint64_t crashes = 0;
    std::uint64_t known_failures = 0; ///< failures matching the corpus
    std::vector<CellResult> results;  ///< every executed cell, by index
    /// One shrunk reproducer per NEW failure signature (first occurrence).
    std::vector<CorpusEntry> new_entries;
    /// Totals summed over every executed cell's verdict.
    std::uint64_t total_jobs = 0;
    std::uint64_t total_misses = 0;
    std::uint64_t total_anomalies = 0;
    std::uint64_t total_maneuvers = 0;
    std::int64_t worst_p99_ns = -1; ///< max per-cell p99 latency

    [[nodiscard]] bool has_new_failures() const noexcept {
        return !new_entries.empty();
    }
    /// Schema-stable JSON report (version 1).
    [[nodiscard]] std::string json() const;
    /// Human summary (one screen).
    [[nodiscard]] std::string str() const;
};

class CampaignDriver {
public:
    explicit CampaignDriver(DriverOptions options);

    /// Expand and run the whole matrix. REQUIREs worker-process mode when
    /// the matrix contains Crash cells. In worker-process mode, run() and
    /// run_single() fork the calling process, so call them while no other
    /// thread holds a lock; every worker is reaped before they return.
    [[nodiscard]] CampaignReport run(const CampaignSpec& spec);

    /// Run one cell (one forked worker or in-process per the options) —
    /// the building block replay and shrink share with run().
    [[nodiscard]] CellResult run_single(const CellConfig& cell);

    /// Shrink a failing cell: reset matrix axes one at a time (domains,
    /// topology, weather, policy, vehicles, spec, seed toward `seed_floor`)
    /// keeping each reset only while the failure signature persists.
    /// Returns the corpus entry of the minimal cell.
    [[nodiscard]] CorpusEntry shrink(const CellResult& failure,
                                     std::uint64_t seed_floor);

private:
    DriverOptions options_;
};

} // namespace sa::campaign
