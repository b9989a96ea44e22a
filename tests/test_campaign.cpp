// Tests for sa::campaign: the campaign/cell grammar (round-trips and
// line-numbered rejections), deterministic matrix expansion, verdict JSON
// stability, the cross-suite determinism property (same cell, domains 1 vs
// 2, byte-identical verdicts), corpus-entry round-trips and replay checks,
// the in-process driver with shrink-to-minimal reproducers, and — when the
// sa_campaign CLI is built — worker-process isolation of crashing cells.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "campaign/campaign_spec.hpp"
#include "campaign/corpus.hpp"
#include "campaign/driver.hpp"
#include "campaign/runner.hpp"
#include "campaign/verdict.hpp"
#include "lint/campaign_rules.hpp"

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
    EXPECT_EQ(spec.name(), "smoke");
    EXPECT_EQ(spec.scenario_template(), "platoon");
    EXPECT_EQ(spec.vehicles(), (std::vector<std::size_t>{2, 3}));
    EXPECT_EQ(spec.duration(), Duration::ms(250));
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
    EXPECT_EQ(CampaignSpec::parse("campaign x { duration 2.5ms; seeds 1..1; }").duration(),
              Duration::us(2500));
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
    EXPECT_EQ(spec.learned_warmup(), Duration::ms(100));
    EXPECT_FALSE(spec.learned_no_metrics());
    const auto cells = spec.expand();
    ASSERT_EQ(cells.size(), 4u);
    for (const auto& cell : cells) {
        EXPECT_EQ(cell.learned_warmup, Duration::ms(100));
    }
    // str() round-trips the statement.
    const auto reparsed = CampaignSpec::parse(spec.str());
    EXPECT_EQ(reparsed.str(), spec.str());
    EXPECT_EQ(reparsed.learned_warmup(), Duration::ms(100));

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
    EXPECT_EQ(spec.mesh_range(), 200u);
    EXPECT_EQ(spec.mesh_ttl(), 6u);
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
    EXPECT_EQ(reparsed.mesh_range(), 200u);
    EXPECT_EQ(reparsed.mesh_ttl(), 6u);
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
    CampaignSpec spec("determinism");
    spec.vehicles({2, 3})
        .duration(Duration::ms(150))
        .weathers({Weather::Clear, Weather::Fog, Weather::Winter})
        .faults({Fault::None, Fault::V2vBlackout, Fault::Overrun, Fault::Misuse})
        .policies({PolicyKind::Steady, PolicyKind::Eager})
        .topologies({Topology::DualBus, Topology::Bridged})
        .seeds(1, 2);
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

// --- corpus ------------------------------------------------------------------------

TEST(CorpusEntry, RoundTripsAndChecksReplays) {
    CellConfig cell;
    cell.campaign = "smoke";
    cell.vehicles = 2;
    cell.duration = Duration::ms(200);
    cell.fault = Fault::Misuse;
    const auto verdict = run_cell(cell);
    ASSERT_EQ(verdict.status, "violation");
    const auto entry = CorpusEntry::from_failure(cell, verdict);
    EXPECT_EQ(entry.signature(), CorpusEntry::signature_of(verdict));
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
    EXPECT_TRUE(reparsed.mismatches(verdict.json()).empty());
    CellVerdict other;
    other.status = "ok";
    EXPECT_FALSE(reparsed.mismatches(other.json()).empty());
}

TEST(CorpusEntry, CrashSignatureGroupsBySignal) {
    const auto crash = CellVerdict::crash(6);
    EXPECT_EQ(crash.status, "crash");
    EXPECT_EQ(crash.signal, 6);
    CellConfig cell;
    const auto entry = CorpusEntry::from_failure(cell, crash);
    EXPECT_EQ(entry.signature(), CorpusEntry::signature_of(crash));
    const auto with_other_signal = CellVerdict::crash(11);
    EXPECT_NE(entry.signature(), CorpusEntry::signature_of(with_other_signal));
}

// --- the in-process driver ---------------------------------------------------------

TEST(CampaignDriver, RunsMatrixInProcessAndAggregates) {
    CampaignSpec spec("inproc");
    spec.vehicles({2})
        .duration(Duration::ms(150))
        .faults({Fault::None, Fault::Misuse})
        .seeds(1, 2);
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
    CampaignSpec spec("known");
    spec.vehicles({2}).duration(Duration::ms(150)).faults({Fault::Misuse}).seeds(
        1, 1);
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
    CampaignSpec spec("would_abort");
    spec.vehicles({2}).duration(Duration::ms(150)).faults({Fault::Crash}).seeds(
        1, 1);
    CampaignDriver driver({.jobs = 1, .worker_exe = "", .shrink = false,
                           .budget_seconds = 0, .known_signatures = {}});
    EXPECT_THROW((void)driver.run(spec), ContractViolation);
}

// --- worker-process isolation (needs the sa_campaign CLI) --------------------------

TEST(CampaignDriver, CrashingCellIsIsolatedInWorkerProcess) {
#ifndef SA_CAMPAIGN_BIN
    GTEST_SKIP() << "sa_campaign CLI not built (SA_BUILD_TOOLS=OFF)";
#else
    CampaignSpec spec("crashy");
    spec.vehicles({2})
        .duration(Duration::ms(150))
        .faults({Fault::None, Fault::Crash})
        .seeds(1, 1);
    CampaignDriver driver({.jobs = 2, .worker_exe = SA_CAMPAIGN_BIN,
                           .shrink = true, .budget_seconds = 0,
                           .known_signatures = {}});
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
#endif
}

TEST(CampaignDriver, WorkerAndInProcessVerdictsAgree) {
#ifndef SA_CAMPAIGN_BIN
    GTEST_SKIP() << "sa_campaign CLI not built (SA_BUILD_TOOLS=OFF)";
#else
    // Process isolation must be invisible for well-behaved cells: the worker
    // protocol ships the cell text over and the verdict JSON back unchanged.
    CellConfig cell;
    cell.vehicles = 2;
    cell.duration = Duration::ms(150);
    cell.weather = Weather::Fog;
    CampaignDriver in_process({.jobs = 1, .worker_exe = "", .shrink = false,
                               .budget_seconds = 0, .known_signatures = {}});
    CampaignDriver forked({.jobs = 1, .worker_exe = SA_CAMPAIGN_BIN,
                           .shrink = false, .budget_seconds = 0,
                           .known_signatures = {}});
    EXPECT_EQ(in_process.run_single(cell).verdict_json,
              forked.run_single(cell).verdict_json);
#endif
}

// --- campaign lint -----------------------------------------------------------------

TEST(CampaignLint, FlagsEmptyMatrixAndUnknownTemplate) {
    CampaignSpec empty("empty");
    empty.seeds(9, 3);
    const auto report = lint::lint_campaign(empty);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.has("CMP002"));

    CampaignSpec martian("mars");
    martian.scenario_template("rover").seeds(1, 1);
    EXPECT_TRUE(lint::lint_campaign(martian).has("CMP001"));
}

TEST(CampaignLint, ProbeFaultsAreInfoNotError) {
    CampaignSpec probing("probing");
    probing.vehicles({2})
        .duration(Duration::ms(150))
        .faults({Fault::None, Fault::Crash})
        .seeds(1, 1);
    const auto report = lint::lint_campaign(probing);
    EXPECT_TRUE(report.ok()) << report.str();
    EXPECT_TRUE(report.has("CMP006"));
}

TEST(CampaignLint, MissingSpecFileIsAnError) {
    CampaignSpec broken("broken");
    broken.vehicles({2})
        .duration(Duration::ms(150))
        .spec_file("/nonexistent/spec.skills")
        .seeds(1, 1);
    const auto report = lint::lint_campaign(broken);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.has("CMP004"));
}

} // namespace
