// Tests for sa::campaign: the campaign/cell grammar (round-trips and
// line-numbered rejections), deterministic matrix expansion, verdict JSON
// stability, the cross-suite determinism property (same cell, domains 1 vs
// 2, byte-identical verdicts), corpus-entry round-trips and replay checks,
// the in-process driver with shrink-to-minimal reproducers, and forked
// workers: crash isolation, reuse across cells, and no leftover processes.
// The smoke campaign's per-cell verdicts are pinned against
// fixtures/expected/smoke_verdicts.txt.

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>

#include "campaign/campaign_spec.hpp"
#include "campaign/corpus.hpp"
#include "campaign/driver.hpp"
#include "campaign/runner.hpp"
#include "campaign/verdict.hpp"
#include "lint/campaign_rules.hpp"
#include "thread_budget.hpp"

namespace {

using namespace sa;
using namespace sa::campaign;
using sim::Duration;

const char* kSmokeText = R"(
    // A small but multi-axis matrix.
    campaign smoke {
      template platoon;
      vehicles 2 3;
      duration 250ms;
      weather clear fog;
      fault none v2v_blackout;
      policy steady eager;
      topology dual_bus;
      domains 1 2;
      seeds 1..2;
    }
)";

// --- grammar -----------------------------------------------------------------------

TEST(CampaignSpec, ParsesEveryAxis) {
    const auto spec = CampaignSpec::parse(kSmokeText);
    EXPECT_EQ(spec.cell().campaign, "smoke");
    EXPECT_EQ(spec.cell().scenario_template, "platoon");
    EXPECT_EQ(spec.vehicles(), (std::vector<std::size_t>{2, 3}));
    EXPECT_EQ(spec.cell().duration, Duration::ms(250));
    EXPECT_EQ(spec.weathers(),
              (std::vector<Weather>{Weather::Clear, Weather::Fog}));
    EXPECT_EQ(spec.faults(), (std::vector<Fault>{Fault::None, Fault::V2vBlackout}));
    EXPECT_EQ(spec.policies(),
              (std::vector<PolicyKind>{PolicyKind::Steady, PolicyKind::Eager}));
    EXPECT_EQ(spec.topologies(), (std::vector<Topology>{Topology::DualBus}));
    EXPECT_EQ(spec.domains(), (std::vector<std::size_t>{1, 2}));
    EXPECT_EQ(spec.seed_range().lo, 1u);
    EXPECT_EQ(spec.seed_range().hi, 2u);
    EXPECT_EQ(spec.cell_count(), 2u * 2 * 2 * 1 * 2 * 2 * 2);
}

TEST(CampaignSpec, StrParseRoundTrips) {
    const auto spec = CampaignSpec::parse(kSmokeText);
    const auto reparsed = CampaignSpec::parse(spec.str());
    EXPECT_EQ(reparsed.str(), spec.str());
    const auto cells = spec.expand();
    const auto cells2 = reparsed.expand();
    ASSERT_EQ(cells.size(), cells2.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(cells[i], cells2[i]) << "cell " << i;
    }
}

TEST(CampaignSpec, RejectsUnknownAxisWithLineNumber) {
    const std::string text = "campaign x {\n  template platoon;\n"
                             "  terrain mars;\n  seeds 1..2;\n}\n";
    try {
        (void)CampaignSpec::parse(text);
        FAIL() << "expected util::ParseError";
    } catch (const util::ParseError& err) {
        EXPECT_EQ(err.line(), 3);
        EXPECT_NE(std::string(err.what()).find("terrain"), std::string::npos);
    }
}

TEST(CampaignSpec, RejectsBadAxisValues) {
    EXPECT_THROW((void)CampaignSpec::parse(
                     "campaign x { weather sunny; seeds 1..1; }"),
                 util::ParseError);
    EXPECT_THROW((void)CampaignSpec::parse(
                     "campaign x { vehicles 1; seeds 1..1; }"),
                 util::ParseError); // below the [2, 8] platoon floor
    EXPECT_THROW((void)CampaignSpec::parse(
                     "campaign x { domains 9; seeds 1..1; }"),
                 util::ParseError);
    EXPECT_THROW((void)CampaignSpec::parse("campaign x { seeds 1..1; }\njunk"),
                 util::ParseError); // trailing tokens after the block
}

/// The line `parse(text)` reports in its util::ParseError; -1 when it accepts.
template <typename Parse>
int error_line(Parse parse, const std::string& text) {
    try {
        (void)parse(text);
    } catch (const util::ParseError& err) {
        return err.line();
    }
    return -1;
}

TEST(CampaignSpec, ChecksEveryNumberWithItsLine) {
    const auto campaign = [](const std::string& text) { return CampaignSpec::parse(text); };
    const auto cell = [](const std::string& text) { return CellConfig::parse(text); };
    const auto entry = [](const std::string& text) { return CorpusEntry::parse(text); };
    // Each bad statement sits on line 2: overflowing integers, a duration
    // past int64 nanoseconds, and one whose nanoseconds wrap negative.
    for (const char* statement :
         {"seeds 1..99999999999999999999999;", "vehicles 99999999999999999999;",
          "duration 99999999999999ms;", "duration 18446744073709ms;",
          "learned 99999999999999ms;", "mesh_ttl 99999999999999999999;"}) {
        EXPECT_EQ(error_line(campaign, std::string("campaign x {\n  ") + statement + "\n}"),
                  2)
            << statement;
    }
    for (const char* statement : {"seed 99999999999999999999;", "duration 1.2.3ms;",
                                  "domains 0x;", "mesh_range 12ms;"}) {
        EXPECT_EQ(error_line(cell, std::string("cell {\n  ") + statement + "\n}"), 2)
            << statement;
    }
    EXPECT_EQ(error_line(entry, "cell {\n}\nexpect status crash;\n"
                                "expect signal 99999999999999999999;\n"),
              4);
    // Durations take a decimal fraction, as in contracts.
    EXPECT_EQ(CampaignSpec::parse("campaign x { duration 2.5ms; seeds 1..1; }").cell().duration,
              Duration::us(2500));
}

TEST(CampaignSpec, RejectsRepeatedStatementWithItsLine) {
    // A repeated statement must not silently replace the first: here the
    // `vehicles 2` axis would vanish from the matrix.
    const auto campaign = [](const std::string& text) { return CampaignSpec::parse(text); };
    EXPECT_EQ(error_line(campaign, "campaign dup {\n  vehicles 2;\n  duration 100ms;\n"
                                   "  vehicles 3;\n  seeds 1..2;\n}\n"),
              4);
    EXPECT_EQ(error_line(campaign, "campaign dup {\n  duration 100ms;\n  seeds 1..2;\n"
                                   "  duration 200ms;\n}\n"),
              4);
    EXPECT_EQ(error_line(campaign, "campaign dup {\n  seeds 1..2;\n  seeds 3..4;\n}\n"), 3);
}

TEST(CellConfig, RejectsRepeatedStatementWithItsLine) {
    // Two seeds in one cell block (or corpus entry) would replay the last.
    const auto cell = [](const std::string& text) { return CellConfig::parse(text); };
    const auto entry = [](const std::string& text) { return CorpusEntry::parse(text); };
    EXPECT_EQ(error_line(cell, "cell {\n  seed 1;\n  fault storm;\n  seed 2;\n}\n"), 4);
    EXPECT_EQ(error_line(entry, "cell {\n  seed 1;\n  seed 2;\n}\nexpect status ok;\n"), 3);
}

TEST(CorpusEntry, RejectsRepeatedExpectationWithItsLine) {
    // A second expectation of one kind would replace the first: this entry
    // would check status ok and signal 11, not what its first lines say.
    const auto entry = [](const std::string& text) { return CorpusEntry::parse(text); };
    EXPECT_EQ(error_line(entry, "cell {\n}\nexpect status violation;\nexpect status ok;\n"
                                "expect signal 6;\nexpect signal 11;\n"),
              4);
    EXPECT_EQ(error_line(entry, "cell {\n}\nexpect status crash;\nexpect signal 6;\n"
                                "expect signal 11;\n"),
              5);
    EXPECT_EQ(error_line(entry, "cell {\n}\nexpect status violation;\nexpect reason \"a\";\n"
                                "expect fingerprint \"0123456789abcdef\";\nexpect reason \"b\";\n"),
              6);
    try {
        (void)CorpusEntry::parse("cell {\n}\nexpect status ok;\nexpect status ok;\n");
        ADD_FAILURE() << "a repeated expectation was accepted";
    } catch (const util::ParseError& err) {
        EXPECT_STREQ(err.what(), "repeated statement 'expect status'");
    }
}

TEST(CampaignSpec, ExpandOrderIsStableWithSeedInnermost) {
    const auto spec = CampaignSpec::parse(kSmokeText);
    const auto cells = spec.expand();
    ASSERT_EQ(cells.size(), spec.cell_count());
    // Seed is the innermost loop: consecutive cells differ only in seed.
    EXPECT_EQ(cells[0].seed, 1u);
    EXPECT_EQ(cells[1].seed, 2u);
    CellConfig expect_second = cells[0];
    expect_second.seed = 2;
    EXPECT_EQ(cells[1], expect_second);
    // Weather is the outermost loop: the first half of the matrix is clear.
    EXPECT_EQ(cells.front().weather, Weather::Clear);
    EXPECT_EQ(cells.back().weather, Weather::Fog);
    const auto clear_cells = static_cast<std::size_t>(
        std::count_if(cells.begin(), cells.end(), [](const CellConfig& cell) {
            return cell.weather == Weather::Clear;
        }));
    EXPECT_EQ(clear_cells, cells.size() / 2);
}

TEST(CampaignSpec, FirstCellIsTheExpansionsFirst) {
    // Every axis with two values, the second of each differing from the
    // default, so a first_cell() that read any axis's default would differ.
    auto spec = CampaignSpec::parse(R"(
        campaign firsts {
          template platoon;
          vehicles 5 3;
          duration 250ms;
          weather rain clear;
          fault storm none;
          policy eager steady;
          topology mesh dual_bus;
          domains 2 1;
          seeds 4..5;
        }
    )");
    EXPECT_EQ(spec.first_cell(), spec.expand().front());
    spec.seeds(2, 1);
    EXPECT_THROW((void)spec.first_cell(), ContractViolation);
}

TEST(CellConfig, StrParseRoundTrips) {
    CellConfig cell;
    cell.campaign = "smoke";
    cell.vehicles = 4;
    cell.duration = Duration::ms(800);
    cell.weather = Weather::Fog;
    cell.fault = Fault::Misuse;
    cell.policy = PolicyKind::Eager;
    cell.topology = Topology::Bridged;
    cell.domains = 2;
    cell.seed = 7;
    const auto reparsed = CellConfig::parse(cell.str());
    EXPECT_EQ(reparsed, cell);
    EXPECT_NE(cell.id().find("fault=misuse"), std::string::npos);
    EXPECT_NE(cell.id().find("seed=7"), std::string::npos);
    // Exactly one block: trailing input is rejected, as after a campaign.
    EXPECT_THROW((void)CellConfig::parse("cell { seed 3; } garbage"), util::ParseError);
}

TEST(CellConfig, LearnedAxisRoundTripsAndStaysOutOfUnlearnedCells) {
    // A cell without a learned monitor serializes exactly as before the axis
    // existed — corpus entries and fingerprints stay byte-stable.
    CellConfig plain;
    plain.campaign = "smoke";
    EXPECT_EQ(plain.str().find("learned"), std::string::npos);
    EXPECT_EQ(plain.id().find("learned"), std::string::npos);

    CellConfig cell;
    cell.campaign = "smoke";
    cell.fault = Fault::SensorDrift;
    cell.learned_warmup = Duration::ms(200);
    const auto reparsed = CellConfig::parse(cell.str());
    EXPECT_EQ(reparsed, cell);
    EXPECT_NE(cell.id().find("learned=200ms"), std::string::npos);
    EXPECT_NE(cell.id().find("fault=sensor_drift"), std::string::npos);

    cell.learned_no_metrics = true;
    const auto reparsed_none = CellConfig::parse(cell.str());
    EXPECT_EQ(reparsed_none, cell);
    EXPECT_NE(cell.id().find("/none"), std::string::npos);
}

TEST(CampaignSpec, LearnedStatementExpandsIntoEveryCell) {
    const auto spec = CampaignSpec::parse(R"(
        campaign learned_smoke {
          template platoon;
          vehicles 2;
          duration 300ms;
          fault none sensor_drift;
          seeds 1..2;
          learned 100ms;
        }
    )");
    EXPECT_EQ(spec.cell().learned_warmup, Duration::ms(100));
    EXPECT_FALSE(spec.cell().learned_no_metrics);
    const auto cells = spec.expand();
    ASSERT_EQ(cells.size(), 4u);
    for (const auto& cell : cells) {
        EXPECT_EQ(cell.learned_warmup, Duration::ms(100));
    }
    // str() round-trips the statement.
    const auto reparsed = CampaignSpec::parse(spec.str());
    EXPECT_EQ(reparsed.str(), spec.str());
    EXPECT_EQ(reparsed.cell().learned_warmup, Duration::ms(100));

    EXPECT_THROW((void)CampaignSpec::parse(
                     "campaign x { seeds 1..1; learned 0ms; }"),
                 util::ParseError); // warm-up must be positive
}

TEST(CellConfig, MeshAxisRoundTripsAndStaysOutOfNonMeshCells) {
    // Non-mesh cells serialize exactly as before the mesh axis existed —
    // corpus entries and fingerprints stay byte-stable.
    CellConfig plain;
    plain.campaign = "smoke";
    EXPECT_EQ(plain.str().find("mesh"), std::string::npos);
    EXPECT_EQ(plain.id().find("mesh"), std::string::npos);

    CellConfig cell;
    cell.campaign = "smoke";
    cell.topology = Topology::LossyMesh;
    cell.mesh_range_m = 200;
    cell.mesh_ttl = 6;
    const auto reparsed = CellConfig::parse(cell.str());
    EXPECT_EQ(reparsed, cell);
    EXPECT_NE(cell.id().find("topology=lossy_mesh"), std::string::npos);
    EXPECT_NE(cell.id().find("mesh_range=200"), std::string::npos);
    EXPECT_NE(cell.id().find("mesh_ttl=6"), std::string::npos);

    Topology parsed{};
    ASSERT_TRUE(topology_from_string("mesh", parsed));
    EXPECT_EQ(parsed, Topology::Mesh);
    ASSERT_TRUE(topology_from_string("lossy_mesh", parsed));
    EXPECT_EQ(parsed, Topology::LossyMesh);
    EXPECT_TRUE(topology_is_mesh(Topology::Mesh));
    EXPECT_TRUE(topology_is_mesh(Topology::LossyMesh));
    EXPECT_FALSE(topology_is_mesh(Topology::DualBus));
    EXPECT_FALSE(topology_is_mesh(Topology::Bridged));
}

TEST(CampaignSpec, MeshStatementsExpandIntoEveryCell) {
    const auto spec = CampaignSpec::parse(R"(
        campaign mesh_smoke {
          template platoon;
          vehicles 4;
          duration 300ms;
          topology mesh lossy_mesh;
          mesh_range 200;
          mesh_ttl 6;
          seeds 1..2;
        }
    )");
    EXPECT_EQ(spec.cell().mesh_range_m, 200u);
    EXPECT_EQ(spec.cell().mesh_ttl, 6u);
    const auto cells = spec.expand();
    ASSERT_EQ(cells.size(), 4u);
    for (const auto& cell : cells) {
        EXPECT_EQ(cell.mesh_range_m, 200u);
        EXPECT_EQ(cell.mesh_ttl, 6u);
    }
    EXPECT_EQ(cells.front().topology, Topology::Mesh);
    EXPECT_EQ(cells.back().topology, Topology::LossyMesh);
    // str() round-trips both statements.
    const auto reparsed = CampaignSpec::parse(spec.str());
    EXPECT_EQ(reparsed.str(), spec.str());
    EXPECT_EQ(reparsed.cell().mesh_range_m, 200u);
    EXPECT_EQ(reparsed.cell().mesh_ttl, 6u);
}

TEST(CellConfig, HarnessProbeFaultsAreClassified) {
    EXPECT_TRUE(fault_is_harness_probe(Fault::Misuse));
    EXPECT_TRUE(fault_is_harness_probe(Fault::Crash));
    EXPECT_FALSE(fault_is_harness_probe(Fault::None));
    EXPECT_FALSE(fault_is_harness_probe(Fault::Storm));
    CellConfig crash_cell;
    crash_cell.fault = Fault::Crash;
    EXPECT_TRUE(cell_may_crash_process(crash_cell));
    crash_cell.fault = Fault::Overrun;
    EXPECT_FALSE(cell_may_crash_process(crash_cell));
}

// --- verdicts ----------------------------------------------------------------------

TEST(CellVerdict, JsonIsSingleLineAndFieldExtractable) {
    CellVerdict verdict;
    verdict.status = "violation";
    verdict.reason = "precondition failed: (x) — \"quoted\"";
    verdict.at_ns = 123456789;
    verdict.platoon_formed = true;
    verdict.members = {"alpha", "beta"};
    VehicleVerdict vehicle;
    vehicle.name = "alpha";
    vehicle.jobs = 42;
    verdict.vehicles.push_back(vehicle);
    const auto json = verdict.json();
    EXPECT_EQ(json.find('\n'), std::string::npos);
    EXPECT_EQ(json_string_field(json, "status"), "violation");
    EXPECT_EQ(json_string_field(json, "reason"), verdict.reason);
    EXPECT_EQ(json_int_field(json, "at_ns"), 123456789);
    EXPECT_EQ(json_int_field(json, "total_jobs"), 42);
}

TEST(CellVerdict, FingerprintIsStable) {
    // FNV-1a 64 with the standard offset/prime: hash("") is the offset
    // basis, and any byte change moves the fingerprint.
    EXPECT_EQ(fnv1a64(""), 14695981039346656037ULL);
    EXPECT_NE(fnv1a64("a"), fnv1a64("b"));
    EXPECT_EQ(fingerprint_hex(0x9f86d081884c7d65ULL), "9f86d081884c7d65");
    CellVerdict verdict;
    EXPECT_EQ(fnv1a64(verdict.json()), fnv1a64(verdict.json()));
}

// --- the determinism property ------------------------------------------------------

TEST(CampaignDeterminism, SixteenCellsReplayIdenticallyAcrossDomainCounts) {
    // The cross-suite property the corpus depends on: a cell's verdict JSON
    // is a pure function of the cell — the same seed replays byte-for-byte,
    // and partitioning the kernel across 1 vs 2 ECU domains is invisible in
    // the verdict. Sample 16 cells spread across the axes (crash cells
    // excluded: they never produce a verdict in-process).
    const auto spec = CampaignSpec::parse(R"(
        campaign determinism {
          vehicles 2 3;
          duration 150ms;
          weather clear fog winter;
          fault none v2v_blackout overrun misuse;
          policy steady eager;
          topology dual_bus bridged;
          seeds 1..2;
        }
    )");
    const auto cells = spec.expand();
    ASSERT_GE(cells.size(), 16u);
    const std::size_t stride = cells.size() / 16;
    for (std::size_t i = 0; i < 16; ++i) {
        CellConfig cell = cells[i * stride];
        cell.domains = 1;
        const auto first = run_cell(cell).json();
        const auto replay = run_cell(cell).json();
        EXPECT_EQ(first, replay) << "replay diverged: " << cell.id();
        cell.domains = 2;
        const auto sharded = run_cell(cell).json();
        EXPECT_EQ(first, sharded)
            << "domain count leaked into the verdict: " << cell.id();
    }
}

TEST(CampaignDeterminism, TwoDomainCellsReplayIdenticallyAtEveryThreadBudget) {
    // A forked worker runs a cell's domains on one thread, an in-process
    // cell on as many as the host gives it: the verdict must not tell them
    // apart. Sample 2-domain cells across the axes (crash cells excluded).
    const auto spec = CampaignSpec::parse(R"(
        campaign budgets {
          vehicles 2 3;
          duration 150ms;
          weather clear fog;
          fault none v2v_blackout storm overrun misuse;
          topology dual_bus bridged mesh;
          domains 2;
          seeds 1..1;
        }
    )");
    const auto cells = spec.expand();
    ASSERT_GE(cells.size(), 12u);
    const std::size_t stride = cells.size() / 12;
    for (std::size_t i = 0; i < 12; ++i) {
        const CellConfig& cell = cells[i * stride];
        std::string verdicts[2];
        for (std::size_t budget : {1u, 2u}) {
            const testutil::ScopedThreadBudget threads(budget);
            verdicts[budget - 1] = run_cell(cell).json();
        }
        EXPECT_EQ(verdicts[0], verdicts[1]) << "thread budget leaked into the verdict: "
                                            << cell.id();
    }
}

TEST(CampaignDeterminism, MeshCellsReplayIdenticallyAcrossDomainCounts) {
    // The mesh topologies put a range-limited v2v::Medium plus a MeshStack
    // per vehicle under the platoon; their verdicts must stay a pure
    // function of the cell — same seed, any domain count.
    for (const Topology topology : {Topology::Mesh, Topology::LossyMesh}) {
        CellConfig cell;
        cell.vehicles = 4;
        cell.duration = Duration::ms(150);
        cell.topology = topology;
        cell.domains = 1;
        const auto first = run_cell(cell).json();
        const auto replay = run_cell(cell).json();
        EXPECT_EQ(first, replay) << "replay diverged: " << cell.id();
        cell.domains = 2;
        const auto sharded = run_cell(cell).json();
        EXPECT_EQ(first, sharded)
            << "domain count leaked into the verdict: " << cell.id();
    }
}

TEST(CampaignRunner, MisuseFaultYieldsViolationWithPartialReport) {
    CellConfig cell;
    cell.vehicles = 2;
    cell.duration = Duration::ms(200);
    cell.fault = Fault::Misuse;
    const auto verdict = run_cell(cell);
    EXPECT_EQ(verdict.status, "violation");
    EXPECT_NE(verdict.reason.find("failed"), std::string::npos);
    // Satellite regression: the partial report is still populated — the
    // scenario ran to duration/2 before the probe threw, so the vehicles
    // completed jobs and the progress clock is past zero.
    EXPECT_GT(verdict.at_ns, 0);
    ASSERT_EQ(verdict.vehicles.size(), 2u);
    EXPECT_GT(verdict.vehicles[0].jobs, 0u);
}

TEST(CampaignRunner, GatewayLatencyCountsEveryFrameOfALongCell) {
    // Each vehicle's two buses complete 1,500 object frames apiece in 30 s,
    // 3,000 trace records for those alone: more than a default CAN trace
    // ring (1,024 records) keeps, so the count must not come from the ring.
    CellConfig cell;
    cell.vehicles = 2;
    cell.duration = Duration::sec(30);
    const LatencySummary latency = run_cell(cell).latency;
    EXPECT_EQ(latency.count, 3000u);
    EXPECT_EQ(latency.p50_ns, 386'000);
    EXPECT_EQ(latency.p99_ns, 386'000);
    EXPECT_EQ(latency.max_ns, 386'000);
}

TEST(CampaignRunner, SmokeCellVerdictsMatchTheGolden) {
    // Every cell of the smoke campaign (none crashes), run in-process.
    // The report golden pins only totals and the worst p99; this pins each
    // cell's whole verdict.
    const std::string fixtures = SA_FIXTURES_DIR;
    std::ifstream campaign(fixtures + "/campaigns/smoke.campaign");
    std::ifstream golden(fixtures + "/expected/smoke_verdicts.txt");
    ASSERT_TRUE(campaign && golden);
    std::ostringstream text;
    text << campaign.rdbuf();
    std::vector<std::string> expected;
    for (std::string line; std::getline(golden, line);) {
        if (!line.empty() && line.front() != '#') {
            expected.push_back(line);
        }
    }
    const std::vector<CellConfig> cells = CampaignSpec::parse(text.str()).expand();
    ASSERT_EQ(cells.size(), expected.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        CellConfig cell = cells[i];
        cell.spec_file = fixtures + "/campaigns/" + cell.spec_file;
        const std::string fingerprint = fingerprint_hex(fnv1a64(run_cell(cell).json()));
        EXPECT_EQ(fingerprint + " " + cells[i].id(), expected[i]) << "cell " << i;
    }
}

// --- corpus ------------------------------------------------------------------------

TEST(CorpusEntry, RoundTripsAndChecksReplays) {
    CellConfig cell;
    cell.campaign = "smoke";
    cell.vehicles = 2;
    cell.duration = Duration::ms(200);
    cell.fault = Fault::Misuse;
    CampaignDriver driver({.jobs = 1, .worker_exe = "", .shrink = false,
                           .budget_seconds = 0, .known_signatures = {}});
    const CellResult failure = driver.run_single(cell);
    ASSERT_EQ(failure.status, "violation");
    // Every axis is already at its floor, so the shrunk entry is the cell.
    const auto entry = driver.shrink(failure, cell.seed);
    ASSERT_EQ(entry.cell, cell);
    EXPECT_EQ(entry.signature(), failure.signature());
    EXPECT_NE(entry.suggested_filename().find("smoke-"), std::string::npos);
    EXPECT_NE(entry.suggested_filename().find(".repro"), std::string::npos);

    const auto reparsed = CorpusEntry::parse(entry.str());
    EXPECT_EQ(reparsed.cell, cell);
    EXPECT_EQ(reparsed.status, entry.status);
    EXPECT_EQ(reparsed.reason, entry.reason);
    EXPECT_EQ(reparsed.fingerprint, entry.fingerprint);

    // The entry is one token stream: "expect" inside a campaign name or a
    // comment is not a statement.
    CorpusEntry named = entry;
    named.cell.campaign = "expect_storm";
    EXPECT_EQ(CorpusEntry::parse(named.str()).str(), named.str());
    EXPECT_EQ(CorpusEntry::parse("// we expect a violation\n" + named.str()).str(),
              named.str());

    // A faithful replay has no mismatches; a doctored one is caught.
    EXPECT_TRUE(reparsed.mismatches(failure.verdict_json).empty());
    CellVerdict other;
    other.status = "ok";
    EXPECT_FALSE(reparsed.mismatches(other.json()).empty());
}

TEST(CorpusEntry, CrashSignatureGroupsBySignal) {
    const auto crash = CellVerdict::crash(6);
    EXPECT_EQ(crash.status, "crash");
    EXPECT_EQ(crash.signal, 6);
    CorpusEntry entry;
    entry.status = crash.status;
    entry.reason = crash.reason;
    entry.signal = crash.signal;
    EXPECT_EQ(entry.signature(), "crash signal=6");
    // A crash's reason text is not part of its identity; its signal is.
    EXPECT_EQ(failure_signature("crash", "other text", 6), entry.signature());
    EXPECT_NE(failure_signature("crash", crash.reason, 11), entry.signature());
}

// --- the in-process driver ---------------------------------------------------------

TEST(CampaignDriver, RunsMatrixInProcessAndAggregates) {
    const auto spec = CampaignSpec::parse(
        "campaign inproc { vehicles 2; duration 150ms; fault none misuse; seeds 1..2; }");
    CampaignDriver driver({.jobs = 1, .worker_exe = "", .shrink = false,
                           .budget_seconds = 0, .known_signatures = {}});
    const auto report = driver.run(spec);
    EXPECT_EQ(report.campaign, "inproc");
    EXPECT_EQ(report.cells, 4u);
    EXPECT_EQ(report.executed, 4u);
    EXPECT_EQ(report.ok, 2u);
    EXPECT_EQ(report.violations, 2u);
    EXPECT_EQ(report.crashes, 0u);
    ASSERT_EQ(report.results.size(), 4u);
    // Deterministic aggregation: results are in matrix (cell-index) order.
    EXPECT_EQ(report.results[0].cell.fault, Fault::None);
    EXPECT_EQ(report.results[2].cell.fault, Fault::Misuse);
    EXPECT_GT(report.total_jobs, 0u);
    // The two misuse failures share one signature -> one new entry.
    ASSERT_EQ(report.new_entries.size(), 1u);
    EXPECT_TRUE(report.has_new_failures());
    EXPECT_NE(report.json().find("\"version\":1"), std::string::npos);
    EXPECT_NE(report.str().find("NEW FAILURES"), std::string::npos);
}

TEST(CampaignDriver, KnownSignaturesSuppressNewEntries) {
    const auto spec = CampaignSpec::parse(
        "campaign known { vehicles 2; duration 150ms; fault misuse; seeds 1..1; }");
    CampaignDriver probe({.jobs = 1, .worker_exe = "", .shrink = false,
                          .budget_seconds = 0, .known_signatures = {}});
    const auto first = probe.run(spec);
    ASSERT_EQ(first.new_entries.size(), 1u);

    CampaignDriver informed({.jobs = 1, .worker_exe = "", .shrink = false,
                             .budget_seconds = 0,
                             .known_signatures =
                                 {first.new_entries[0].signature()}});
    const auto second = informed.run(spec);
    EXPECT_EQ(second.known_failures, 1u);
    EXPECT_TRUE(second.new_entries.empty());
}

TEST(CampaignDriver, ShrinkDropsAxesWhileFailurePersists) {
    // The misuse probe fails regardless of weather/policy/topology/domain
    // axes, so shrink must strip all of them back to the defaults.
    CellConfig noisy;
    noisy.campaign = "shrinkme";
    noisy.vehicles = 4;
    noisy.duration = Duration::ms(150);
    noisy.weather = Weather::Winter;
    noisy.fault = Fault::Misuse;
    noisy.policy = PolicyKind::Eager;
    noisy.topology = Topology::Bridged;
    noisy.domains = 2;
    noisy.seed = 9;
    CampaignDriver driver({.jobs = 1, .worker_exe = "", .shrink = true,
                           .budget_seconds = 0, .known_signatures = {}});
    auto failure = driver.run_single(noisy);
    ASSERT_EQ(failure.status, "violation");
    const auto entry = driver.shrink(failure, 1);
    EXPECT_EQ(entry.signature(), failure.signature());
    EXPECT_EQ(entry.cell.weather, Weather::Clear);
    EXPECT_EQ(entry.cell.fault, Fault::Misuse); // the fault axis is the bug
    EXPECT_EQ(entry.cell.policy, PolicyKind::Steady);
    EXPECT_EQ(entry.cell.topology, Topology::DualBus);
    EXPECT_EQ(entry.cell.domains, 1u);
    EXPECT_EQ(entry.cell.vehicles, 2u);
    EXPECT_EQ(entry.cell.seed, 1u);
    // The recorded fingerprint matches the shrunk cell's own replay.
    const auto replay = driver.run_single(entry.cell);
    EXPECT_TRUE(entry.mismatches(replay.verdict_json).empty());
}

TEST(CampaignDriver, RefusesCrashCellsInProcess) {
    const auto spec = CampaignSpec::parse(
        "campaign would_abort { vehicles 2; duration 150ms; fault crash; seeds 1..1; }");
    CampaignDriver driver({.jobs = 1, .worker_exe = "", .shrink = false,
                           .budget_seconds = 0, .known_signatures = {}});
    EXPECT_THROW((void)driver.run(spec), ContractViolation);
}

// --- forked workers ----------------------------------------------------------------

DriverOptions worker_options(std::size_t jobs, bool shrink) {
    return {.jobs = jobs, .worker_exe = "/proc/self/exe", .shrink = shrink,
            .budget_seconds = 0, .known_signatures = {}};
}

/// True when this process has no child, running or unreaped.
bool no_children() {
    return ::waitpid(-1, nullptr, WNOHANG) == -1 && errno == ECHILD;
}

TEST(CampaignDriver, CrashingCellIsIsolatedInWorkerProcess) {
    const auto spec = CampaignSpec::parse(
        "campaign crashy { vehicles 2; duration 150ms; fault none crash; seeds 1..1; }");
    CampaignDriver driver(worker_options(2, true));
    const auto report = driver.run(spec);
    EXPECT_EQ(report.executed, 2u);
    EXPECT_EQ(report.ok, 1u);
    EXPECT_EQ(report.crashes, 1u);
    ASSERT_EQ(report.new_entries.size(), 1u);
    const auto& entry = report.new_entries[0];
    EXPECT_EQ(entry.status, "crash");
    EXPECT_EQ(entry.signal, 6) << "abort() => SIGABRT";
    EXPECT_EQ(entry.cell.fault, Fault::Crash);
    // The shrunk crash cell replays as a crash through a fresh worker.
    const auto replay = driver.run_single(entry.cell);
    EXPECT_EQ(replay.status, "crash");
    EXPECT_EQ(replay.signal, 6);
}

TEST(CampaignDriver, WorkerAndInProcessVerdictsAgree) {
    // Process isolation must be invisible for well-behaved cells. Crash
    // cells sit between 1- and 2-domain cells in matrix order, so a worker
    // runs several cells back to back and is replaced after every crash.
    // The workers run each cell on one thread; the in-process cells here
    // run a thread per domain, so the comparison also covers the budget.
    const testutil::ScopedThreadBudget threads(2);
    const auto spec = CampaignSpec::parse(R"(
        campaign reuse {
          vehicles 2;
          duration 150ms;
          weather clear fog;
          fault none crash misuse;
          domains 1 2;
          seeds 1..1;
        }
    )");
    CampaignDriver in_process({.jobs = 1, .worker_exe = "", .shrink = false,
                               .budget_seconds = 0, .known_signatures = {}});
    for (const std::size_t jobs : {1, 2}) {
        CampaignDriver forked(worker_options(jobs, false));
        const auto report = forked.run(spec);
        EXPECT_TRUE(no_children()) << "run() left a worker behind";
        ASSERT_EQ(report.results.size(), 12u);
        for (const CellResult& result : report.results) {
            if (result.cell.fault == Fault::Crash) {
                EXPECT_EQ(result.signature(), "crash signal=6") << result.cell.id();
            } else {
                EXPECT_EQ(result.verdict_json,
                          in_process.run_single(result.cell).verdict_json)
                    << "jobs " << jobs << ": " << result.cell.id();
            }
        }
    }

    CellConfig cell;
    cell.vehicles = 2;
    cell.duration = Duration::ms(150);
    cell.weather = Weather::Fog;
    cell.domains = 2;
    CampaignDriver forked(worker_options(1, false));
    EXPECT_EQ(forked.run_single(cell).verdict_json,
              in_process.run_single(cell).verdict_json);
    EXPECT_TRUE(no_children()) << "run_single() left a worker behind";
}

TEST(CampaignDriver, LeavesSigpipeDispositionAlone) {
    // Start from the default, so a driver an earlier test made in this
    // process cannot hide a change; the original is restored at the end.
    struct sigaction default_action {};
    default_action.sa_handler = SIG_DFL;
    struct sigaction original {};
    ASSERT_EQ(::sigaction(SIGPIPE, &default_action, &original), 0);
    const auto spec =
        CampaignSpec::parse("campaign one_cell { vehicles 2; duration 150ms; seeds 1..1; }");
    CampaignDriver driver(worker_options(1, false));
    EXPECT_EQ(driver.run(spec).ok, 1u);
    struct sigaction after {};
    ASSERT_EQ(::sigaction(SIGPIPE, nullptr, &after), 0);
    EXPECT_EQ(after.sa_handler, SIG_DFL)
        << "the driver changed SIGPIPE's disposition for the whole process";
    ASSERT_EQ(::sigaction(SIGPIPE, &original, nullptr), 0);
}

// --- campaign lint -----------------------------------------------------------------

TEST(CampaignLint, FlagsEmptyMatrixAndUnknownTemplate) {
    const auto empty = CampaignSpec::parse("campaign empty { seeds 9..3; }");
    const auto report = lint::lint_campaign(empty);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.has("CMP002"));

    const auto martian =
        CampaignSpec::parse("campaign mars { template rover; seeds 1..1; }");
    EXPECT_TRUE(lint::lint_campaign(martian).has("CMP001"));
}

TEST(CampaignLint, ProbeFaultsAreInfoNotError) {
    const auto probing = CampaignSpec::parse(
        "campaign probing { vehicles 2; duration 150ms; fault none crash; seeds 1..1; }");
    const auto report = lint::lint_campaign(probing);
    EXPECT_TRUE(report.ok()) << report.str();
    EXPECT_TRUE(report.has("CMP006"));
}

TEST(CampaignLint, MissingSpecFileIsAnError) {
    const auto broken = CampaignSpec::parse(R"(
        campaign broken {
          vehicles 2;
          duration 150ms;
          spec "/nonexistent/spec.skills";
          seeds 1..1;
        }
    )");
    const auto report = lint::lint_campaign(broken);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.has("CMP004"));
}

} // namespace
