#pragma once
// The failing-seed corpus: every failing campaign cell is persisted as a
// minimal reproducer — the shrunk `cell { ... }` block plus `expect`
// statements pinning what the failure looked like. Replaying an entry
// re-runs the cell bit-for-bit and checks the expectations, which is what
// turns yesterday's failures into today's regression-fuzz suite
// (fixtures/corpus/ is replayed by CI on every PR).
//
// Entry grammar (one token stream in the shared lexical rules of
// util/lexer.hpp: a cell block, then one or more expect statements, each
// kind at most once):
//
//   cell { campaign smoke; template platoon; vehicles 2; duration 800ms;
//          weather clear; fault misuse; policy steady; topology dual_bus;
//          domains 1; seed 7; }
//   expect status violation;
//   expect reason "precondition failed: ...";
//   expect signal 6;
//   expect fingerprint "9f86d081884c7d65";

#include <string>
#include <vector>

#include "campaign/campaign_spec.hpp"
#include "campaign/verdict.hpp"

namespace sa::campaign {

/// One committed reproducer: a (shrunk) cell plus the expected failure.
struct CorpusEntry {
    CellConfig cell;
    std::string status = "violation"; ///< expected verdict status
    std::string reason;               ///< expected reason ("" = don't check)
    int signal = 0;                   ///< expected crash signal (0 = none)
    std::string fingerprint;          ///< expected verdict fingerprint
                                      ///< (hex16; "" = don't check)

    /// The expected failure's failure_signature().
    [[nodiscard]] std::string signature() const;

    /// Deterministic filename for fixtures/corpus/, derived from the
    /// failure signature and the cell identity ("<campaign>-<hash>.repro").
    [[nodiscard]] std::string suggested_filename() const;

    /// Serialize to the entry grammar; parse(str()) round-trips.
    [[nodiscard]] std::string str() const;
    [[nodiscard]] static CorpusEntry parse(const std::string& text);

    /// Check a replayed verdict (its canonical JSON line — CellVerdict::
    /// json() in-process, the worker's verdict line in worker mode) against
    /// the expectations; returns human-readable mismatches (empty =
    /// reproduced bit-for-bit).
    [[nodiscard]] std::vector<std::string>
    mismatches(const std::string& verdict_json) const;
};

/// Read and parse one entry file. An unparseable entry throws
/// util::ParseError whose message starts with `<file>:<line>: `, so it reads
/// whole without line(); an unreadable file throws it with line 0.
[[nodiscard]] CorpusEntry load_corpus_entry(const std::string& path);

/// Load every *.repro entry under `directory` (sorted by filename so replay
/// order is stable) through load_corpus_entry(). Returns (path, entry) pairs;
/// a missing directory is an empty corpus.
[[nodiscard]] std::vector<std::pair<std::string, CorpusEntry>>
load_corpus(const std::string& directory);

} // namespace sa::campaign
