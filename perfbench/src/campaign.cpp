// campaign-matrix: the benchmark's own campaign file through the
// worker-process driver, as `sa_campaign run` does it: CampaignSpec::parse
// -> lint_campaign -> CampaignDriver::run with two worker processes and the
// committed corpus's known signatures. Many builds (MCC + lint + RTE
// assembly) and short runs instead of one build and a long run.

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign_spec.hpp"
#include "campaign/corpus.hpp"
#include "campaign/driver.hpp"
#include "campaign/runner.hpp"
#include "lint/campaign_rules.hpp"
#include "scenario_op.hpp"

namespace perfbench {
namespace {

namespace cp = sa::campaign;

constexpr std::size_t kJobs = 2;
/// Seeds per repetition: the workload seed alone (768 cells).
constexpr std::uint64_t kSeedsPerRep = 1;
/// Cells whose run_single() is timed in both worker and in-process mode.
constexpr std::size_t kSpawnSample = 64;
/// The campaign layer sample of the other workloads' traced runs: every
/// 16th non-crash cell, 16 run_single() pairs and 8 set-ups.
constexpr std::size_t kSampleStride = 16;
constexpr std::size_t kSampleSpawn = 16;
constexpr std::size_t kSampleSetups = 8;

std::string read_text(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        throw std::runtime_error("cannot read " + path);
    }
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

struct Setup {
    cp::CampaignSpec spec;
    std::vector<std::string> known;
    double parse_s = 0.0; ///< parse + expand + lint
    double corpus_s = 0.0;
    std::uint64_t lint_errors = 0;
    std::uint64_t lint_warnings = 0;
};

/// Everything before the first cell: parse, expand, lint, corpus load.
Setup set_up(const Options& options, Spans& spans, std::uint64_t op) {
    Setup setup;
    const double t0 = wall_now();
    {
        SpanScope span(spans, "campaign.parse", op);
        setup.spec = cp::CampaignSpec::parse(read_text(options.campaign));
        setup.spec.seeds(options.seed, options.seed + kSeedsPerRep - 1);
        (void)setup.spec.expand();
        const auto report = sa::lint::lint_campaign(setup.spec);
        setup.lint_errors = report.error_count();
        setup.lint_warnings = report.warning_count();
    }
    const double t1 = wall_now();
    {
        SpanScope span(spans, "campaign.corpus", op);
        for (const auto& [path, entry] : cp::load_corpus(options.corpus)) {
            setup.known.push_back(entry.signature());
        }
    }
    setup.parse_s = t1 - t0;
    setup.corpus_s = wall_now() - t1;
    return setup;
}

/// Twin key: the cell's identity with the domain count left out.
std::string twin_key(const cp::CellConfig& cell) {
    cp::CellConfig twin = cell;
    twin.domains = 1;
    return twin.id();
}

std::string cell_json(const cp::CellResult& result, bool with_verdict) {
    Json cell;
    cell.str("key", twin_key(result.cell))
        .count("domains", result.cell.domains)
        .count("probe", cp::fault_is_harness_probe(result.cell.fault) ? 1 : 0)
        .str("status", result.status)
        .str("signature", result.signature())
        .str("fp", cp::fingerprint_hex(cp::fnv1a64(result.verdict_json)))
        .count("at_ns", static_cast<std::uint64_t>(
                            cp::json_int_field(result.verdict_json, "at_ns")));
    if (with_verdict) {
        cell.str("verdict", result.verdict_json);
    }
    return cell.done();
}

/// One repetition: the whole matrix through the worker-process driver.
std::string campaign_rep(const Setup& setup, const Options& options, Spans& spans,
                         std::uint64_t op) {
    cp::DriverOptions driver_options;
    driver_options.jobs = kJobs;
    driver_options.worker_exe = options.worker_exe;
    driver_options.known_signatures = setup.known;
    cp::CampaignDriver driver(driver_options);

    const GaugeReading before = gauge_host(kJobs);
    const Usage usage0 = usage_now();
    const double wall0 = wall_now();
    const cp::CampaignReport report = driver.run(setup.spec);
    const double wall1 = wall_now();
    const Usage usage1 = usage_now();
    const GaugeReading gauge = mean(before, gauge_host(kJobs));
    spans.add("campaign.run", wall0, wall1, op);

    std::vector<std::string> cells;
    cells.reserve(report.results.size());
    for (const cp::CellResult& result : report.results) {
        cells.push_back(cell_json(result, op == 0));
    }
    return Json()
        .num("wall_s", wall1 - wall0)
        .num("cpu_s", (usage1.self_cpu_s - usage0.self_cpu_s) +
                          (usage1.children_cpu_s - usage0.children_cpu_s))
        .num("gauge_wall_s", gauge.wall_s)
        .num("gauge_cpu_s", gauge.cpu_s)
        .count("cells", report.executed)
        .count("skipped", report.skipped)
        .raw("results", json_array(cells))
        .done();
}

/// The lossy-mesh cell whose radio loss pattern must change with the seed.
cp::CellConfig seed_probe_cell(std::uint64_t seed) {
    cp::CellConfig cell;
    cell.campaign = "seed_probe";
    cell.vehicles = 5;
    cell.duration = sa::sim::Duration::ms(500);
    cell.topology = cp::Topology::LossyMesh;
    cell.seed = seed;
    return cell;
}

std::string seed_probe_outputs(std::uint64_t seed, Spans& spans, std::uint64_t op) {
    const cp::CellConfig cell = seed_probe_cell(seed);
    ScenarioHooks hooks;
    hooks.declare = [&cell](sa::scenario::ScenarioBuilder& builder) {
        cp::declare_cell_scenario(builder, cell);
    };
    hooks.collect = [](sa::scenario::Scenario& scenario, OpRecord& record) {
        std::string tables;
        for (const std::string& name : scenario.vehicle_names()) {
            tables += scenario.mesh(name).table_str();
        }
        record.outputs.count("v2v_deliveries", scenario.v2v().deliveries())
            .count("v2v_losses", scenario.v2v().losses())
            .str("mesh_tables", cp::fingerprint_hex(cp::fnv1a64(tables)));
    };
    return run_scenario_op(seed, cell.domains, cell.duration, hooks, false, spans, op)
        .json();
}

/// Traced-only: Medium::transmit timed in benchmark beacons, one per
/// vehicle, added to a 5 s lossy-mesh cell. The matrix's cells carry no
/// benchmark beacons, so this separate operation measures the mesh layer's
/// transmit on the campaign's radio.
std::string mesh_transmit_sample(std::uint64_t seed, Spans& spans, std::uint64_t op) {
    cp::CellConfig cell = seed_probe_cell(seed);
    cell.duration = sa::sim::Duration::sec(5);
    std::vector<Beacon> beacons(cell.vehicles);
    ScenarioHooks hooks;
    hooks.declare = [&cell](sa::scenario::ScenarioBuilder& builder) {
        cp::declare_cell_scenario(builder, cell);
    };
    hooks.prepare = [&, seed](sa::scenario::Scenario& scenario) {
        const std::vector<std::string>& names = scenario.vehicle_names();
        for (std::size_t i = 0; i < names.size() && i < beacons.size(); ++i) {
            Beacon& beacon = beacons[i];
            beacon.medium = &scenario.v2v();
            beacon.name = "bench_" + names[i];
            beacon.position_m = scenario.v2v().position(names[i]);
            beacon.timed = true;
            sa::sim::Simulator& home = scenario.vehicle(names[i]).simulator();
            scenario.v2v().attach(
                beacon.name, home,
                [&beacon](const sa::v2v::Frame& frame, double) { beacon.receive(frame); },
                beacon.position_m);
            (void)home.schedule_periodic(kBeaconPeriod, [b = &beacon] { b->fire(); },
                                         beacon_phase(seed, i));
        }
    };
    hooks.collect = [&beacons](sa::scenario::Scenario&, OpRecord& record) {
        add_transmit_timing(beacons, record);
    };
    return run_scenario_op(seed, cell.domains, cell.duration, hooks, false, spans, op).json();
}

/// Traced-only measurements: in-process cells (run_cell, then the same
/// cells through the scenario API with every step timed) and worker spawn,
/// on every `stride`-th cell that cannot crash the process.
void traced_cells(const Setup& setup, const Options& options, std::size_t stride,
                  std::size_t spawn_sample, Spans& spans, std::uint64_t op, Json& record) {
    std::vector<cp::CellConfig> cells;
    std::size_t index = 0;
    for (const cp::CellConfig& cell : setup.spec.expand()) {
        if (!cp::cell_may_crash_process(cell) && index++ % stride == 0) {
            cells.push_back(cell);
        }
    }

    std::vector<double> inproc_s;
    {
        SpanScope span(spans, "campaign.run_cell", op);
        for (const cp::CellConfig& cell : cells) {
            const double t0 = wall_now();
            (void)cp::run_cell(cell);
            inproc_s.push_back(wall_now() - t0);
        }
    }

    std::vector<std::string> ops;
    for (const cp::CellConfig& cell : cells) {
        ScenarioHooks hooks;
        hooks.buses = {"can_sense", "can_act"};
        hooks.declare = [&cell](sa::scenario::ScenarioBuilder& builder) {
            cp::declare_cell_scenario(builder, cell);
        };
        OpRecord cell_op = run_scenario_op(cell.seed, cell.domains, cell.duration, hooks,
                                           true, spans, op);
        cell_op.outputs.str("key", twin_key(cell));
        ops.push_back(cell_op.json());
    }

    cp::DriverOptions worker_options;
    worker_options.worker_exe = options.worker_exe;
    worker_options.shrink = false;
    cp::CampaignDriver workers(worker_options);
    cp::CampaignDriver in_process(cp::DriverOptions{});
    std::vector<double> worker_s;
    std::vector<double> in_process_s;
    const std::size_t spawn_stride = std::max<std::size_t>(1, cells.size() / spawn_sample);
    for (std::size_t i = 0; i < cells.size() && i < spawn_sample; ++i) {
        const cp::CellConfig& cell = cells[i * spawn_stride];
        const double t0 = wall_now();
        (void)workers.run_single(cell);
        const double t1 = wall_now();
        (void)in_process.run_single(cell);
        const double t2 = wall_now();
        spans.add("campaign.run_single.worker", t0, t1, op);
        spans.add("campaign.run_single.in_process", t1, t2, op);
        worker_s.push_back(t1 - t0);
        in_process_s.push_back(t2 - t1);
    }

    record.nums("inproc_cell_s", inproc_s)
        .raw("inproc_ops", json_array(ops))
        .nums("run_single_worker_s", worker_s)
        .nums("run_single_in_process_s", in_process_s);
}

} // namespace

std::string campaign_sample(const Options& options, Spans& spans, std::uint64_t op) {
    std::vector<double> parse_s;
    Setup setup;
    for (std::size_t i = 0; i < kSampleSetups; ++i) {
        setup = set_up(options, spans, op);
        parse_s.push_back(setup.parse_s);
    }
    Json record;
    record.nums("parse_s", parse_s);
    traced_cells(setup, options, kSampleStride, kSampleSpawn, spans, op, record);
    return record.done();
}

std::string run_campaign(const Options& options) {
    Spans spans(options.trace);
    Spans quiet(false);

    // Set-up takes about half a millisecond: repeat it and report every
    // sample, with the gauge readings taken on its CPU around it.
    std::vector<double> setup_s;
    std::vector<double> setup_gauge_s;
    std::vector<double> parse_s;
    Setup setup;
    {
        CpuRotation rotation; // released before any worker process starts
        for (std::uint64_t i = 0; i < kExtraSetups; ++i) {
            rotation.next();
            const GaugeReading before = gauge_host(1);
            setup = set_up(options, i == 0 ? spans : quiet, 0);
            setup_gauge_s.push_back(mean(before, gauge_host(1)).wall_s);
            setup_s.push_back(setup.parse_s + setup.corpus_s);
            parse_s.push_back(setup.parse_s);
        }
    }

    std::vector<std::string> reps;
    repeat_for(options.seconds, 3, [&](std::size_t i) {
        reps.push_back(campaign_rep(setup, options, spans, i));
    });

    // Read before the record is serialized, which the benchmark adds. The
    // workers' own peaks are not measurable here: a forked worker's
    // ru_maxrss keeps the resident set of the driver it was forked from.
    const std::uint64_t peak_kb = peak_rss_kb();
    Json record;
    record.str("workload", "campaign-matrix")
        .count("peak_rss_kb", peak_kb)
        .count("lint_errors", setup.lint_errors)
        .count("lint_warnings", setup.lint_warnings)
        .strs("known_signatures", setup.known)
        .nums("setup_s", setup_s)
        .nums("setup_gauge_s", setup_gauge_s)
        .nums("parse_s", parse_s)
        .raw("reps", json_array(reps))
        .raw("seed_probe", seed_probe_outputs(options.seed, quiet, 0))
        .raw("alt_seed", seed_probe_outputs(options.seed + 1, quiet, 0));
    if (options.trace) {
        traced_cells(setup, options, 1, kSpawnSample, spans, reps.size(), record);
        record.raw("mesh_sample", mesh_transmit_sample(options.seed, spans, reps.size() + 1));
    }
    if (options.trace && !spans.write(options.trace_out)) {
        throw std::runtime_error("cannot write trace file " + options.trace_out);
    }
    return record.done();
}

/// Lint a campaign file; the benchmark's self-test requires 0 and 0.
int lint_campaign_file(const std::string& path) {
    const cp::CampaignSpec spec = cp::CampaignSpec::parse(read_text(path));
    const auto report = sa::lint::lint_campaign(spec);
    std::printf("errors=%zu warnings=%zu cells=%llu\n%s\n",
                static_cast<std::size_t>(report.error_count()),
                static_cast<std::size_t>(report.warning_count()),
                static_cast<unsigned long long>(spec.cell_count()), report.str().c_str());
    return report.error_count() == 0 && report.warning_count() == 0 ? 0 : 1;
}

} // namespace perfbench
