"""Arithmetic and output checks over the raw record perfbench_driver prints.

The driver only measures; this module turns its raw record into
  * a count of failed operations (the output checks),
  * the end-to-end metrics (untraced runs), and
  * the per-layer metrics (traced runs).
Everything here is pure, so the self-tests can feed it doctored records.
"""

import math
import statistics

# name -> (unit, better), in print order.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "sim_rate": ("sim_s/s", "higher"),
    "cells_per_s": ("1/s", "higher"),
    "cpu_per_sim_s": ("s/sim_s", "lower"),
    "cpu_ms_per_cell": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "scenario.declare_ms": ("ms", "lower"),
    "lint.scenario_ms": ("ms", "lower"),
    "scenario.build_ms": ("ms", "lower"),
    "sim.events": ("count", "lower"),
    "sim.ns_per_event": ("ns", "lower"),
    "sim.allocs_per_event": ("count/event", "lower"),
    "sim.windows": ("count", "lower"),
    "sim.cross_domain_events": ("count", "lower"),
    "sim.events_per_window": ("count/window", "higher"),
    "sim.parallelism": ("cpu_s/s", "higher"),
    "sim.ctx_switches_per_window": ("count/window", "lower"),
    "sim.speedup_vs_1_domain": ("ratio", "higher"),
    "sim.barrier_us_per_window": ("us", "lower"),
    "can.frames": ("count", "lower"),
    "can.arbitration_rounds": ("count", "lower"),
    "can.polls_per_frame": ("count/frame", "lower"),
    "can.gateway_forwarded": ("count", "lower"),
    "rte.jobs": ("count", "lower"),
    "rte.deadline_misses": ("count", "lower"),
    "monitor.checks": ("count", "lower"),
    "monitor.anomalies": ("count", "lower"),
    "learn.evaluations": ("count", "lower"),
    "learn.share_of_run": ("ratio", "lower"),
    "core.problems_handled": ("count", "lower"),
    "skills.propagate_us": ("us", "lower"),
    "platoon.maneuvers": ("count", "lower"),
    "mesh.transmissions": ("count", "lower"),
    "mesh.deliveries": ("count", "lower"),
    "mesh.losses": ("count", "lower"),
    "mesh.transmit_us": ("us", "lower"),
    "mesh.share_of_run": ("ratio", "lower"),
    "mesh.relays": ("count", "lower"),
    "campaign.parse_ms": ("ms", "lower"),
    "campaign.cell_build_ms": ("ms", "lower"),
    "campaign.cell_run_ms": ("ms", "lower"),
    "campaign.cell_inproc_ms_p50": ("ms", "lower"),
    "campaign.cell_inproc_ms_p99": ("ms", "lower"),
    "campaign.spawn_ms": ("ms", "lower"),
    "bench.trace_overhead": ("ratio", "lower"),
}


# --- arithmetic -------------------------------------------------------------

def median(values):
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError("percentile must be in (0, 100]")
    return ordered[math.ceil(p / 100.0 * len(ordered)) - 1]


def rate(amount, seconds):
    if seconds <= 0:
        raise ValueError("rate over a non-positive interval")
    return amount / seconds


def ratio(numerator, denominator):
    """numerator / denominator, or 0 when the denominator is 0 (a layer
    that does no work in this workload)."""
    return numerator / denominator if denominator else 0.0


# --- output checks ----------------------------------------------------------

def _fleet_invariants(record):
    vehicles = record["vehicles"]
    expected_jobs = record["expected_jobs_per_vehicle"]

    def invariants(out):
        problems = []
        if out["deliveries"] != out["transmissions"] * (vehicles - 1):
            problems.append("deliveries %d != transmissions %d x %d"
                            % (out["deliveries"], out["transmissions"], vehicles - 1))
        bad = [i for i, jobs in enumerate(out["jobs"]) if jobs != expected_jobs]
        if bad:
            problems.append("vehicles %s did not complete %d jobs" % (bad[:5], expected_jobs))
        return problems
    return invariants


def check_scenario_workload(record):
    """Failed operations of fleet-v2v or platoon-dual-bus.

    Returns (attempted, failed, problems). An operation fails when it
    threw, breaks a workload invariant, or its model outputs differ from
    the reference run (fleet: domains(1); platoon: domains(2)), which
    also makes every repetition identical. Problems outside the counted
    operations (the reference itself, a seed that changes nothing) make
    the invocation incorrect. Executed-event counts are reported, never
    compared: they differ legally under sharding.
    """
    if record["workload"] == "fleet-v2v":
        invariants = _fleet_invariants(record)
    else:
        def invariants(out):
            return []

    def op_problems(op):
        problems = ["violation: " + op["violation"]] if op["violation"] else []
        return problems + invariants(op["outputs"])

    reference = record["reference"]
    problems = ["reference: " + p for p in op_problems(reference)]
    failed = 0
    ops = record["warm_up"] + record["ops"]
    for index, op in enumerate(ops):
        found = op_problems(op)
        if op["outputs"] != reference["outputs"]:
            found.append("outputs differ from the domains(%d) reference" % reference["domains"])
        if found:
            failed += 1
            problems.extend("op %d: %s" % (index, p) for p in found)
    if record["alt_seed"]["outputs"] == reference["outputs"]:
        problems.append("the neighbouring seed produced the same outputs")
    return len(ops), failed, problems


def check_campaign(record):
    """Failed cells of campaign-matrix: a non-probe cell that is not ok, a
    probe whose failure signature is not in the committed corpus, a cell
    whose verdict changed between repetitions, and (compared once, in the
    first repetition) a domains-2 cell whose verdict JSON differs from its
    domains-1 twin."""
    problems = []
    if record["lint_errors"] or record["lint_warnings"]:
        problems.append("matrix lint: %d errors, %d warnings"
                        % (record["lint_errors"], record["lint_warnings"]))
    known = set(record["known_signatures"])
    reps = record["reps"]
    first = reps[0]["results"]
    twins = {}
    for cell in first:
        twins.setdefault(cell["key"], {})[cell["domains"]] = cell["verdict"]
    bad_twins = {key for key, pair in twins.items()
                 if 1 in pair and 2 in pair and pair[1] != pair[2]}

    attempted = 0
    failed = 0
    for rep_index, rep in enumerate(reps):
        results = rep["results"]
        attempted += len(results)
        if rep["skipped"] or len(results) != len(first):
            problems.append("rep %d ran %d cells, skipped %d"
                            % (rep_index, len(results), rep["skipped"]))
        for index, cell in enumerate(results):
            reason = None
            if cell["probe"]:
                if cell["signature"] not in known:
                    reason = "probe signature not in the corpus: " + cell["signature"]
            elif cell["status"] != "ok":
                reason = "status %s (%s)" % (cell["status"], cell["signature"])
            if reason is None and index < len(first) and cell["fp"] != first[index]["fp"]:
                reason = "verdict differs from repetition 0"
            if (reason is None and rep_index == 0 and cell["domains"] == 2
                    and cell["key"] in bad_twins):
                reason = "verdict JSON differs from its domains-1 twin"
            if reason is not None:
                failed += 1
                problems.append("rep %d cell %s domains=%d: %s"
                                % (rep_index, cell["key"], cell["domains"], reason))
    if record["alt_seed"]["outputs"] == record["seed_probe"]["outputs"]:
        problems.append("the neighbouring seed produced the same radio outputs")
    return attempted, failed, problems


def check(record):
    if record["workload"] == "campaign-matrix":
        attempted, failed, problems = check_campaign(record)
    else:
        attempted, failed, problems = check_scenario_workload(record)
    # Traced campaign runs: the mesh.transmit_us sample must not throw.
    # (Traced in-process cells include the misuse probes, which do.)
    violation = record.get("mesh_sample", {}).get("violation")
    if violation:
        problems = problems + ["mesh transmit sample: " + violation]
    return attempted, failed, problems


# --- end-to-end metrics -----------------------------------------------------

# Driver processes an untraced run is split over (see run.py).
PROCESSES = 3


def pool(records):
    """One record holding the repetitions and set-up samples of the
    records of several driver processes of the same run."""
    pooled = dict(records[0])
    if pooled["workload"] == "campaign-matrix":
        pooled["reps"] = [rep for r in records for rep in r["reps"]]
        pooled["setup_s"] = [s for r in records for s in r["setup_s"]]
        pooled["setup_gauge_s"] = [g for r in records for g in r["setup_gauge_s"]]
    else:
        pooled["warm_up"] = [op for r in records for op in r["warm_up"]]
        pooled["ops"] = [op for r in records for op in r["ops"]]
        pooled["extra_setup_s"] = [s for r in records for s in r["extra_setup_s"]]
        pooled["extra_setup_gauge_s"] = [g for r in records for g in r["extra_setup_gauge_s"]]
    pooled["peak_rss_kb"] = max(r["peak_rss_kb"] for r in records)
    return pooled


def _peak_rss_mb(record):
    return record["peak_rss_kb"] / 1024.0


# The host's speed drifts: on a shared VM a vCPU ran 1.5-2x slower for
# tens of seconds at a time, which moved whole runs, whatever statistic a
# run took over its operations. Every timed operation and set-up is
# therefore taken between two readings of the host-speed gauge
# (perfbench/src/gauge.hpp), a fixed piece of reference work that calls
# nothing in the library. A cost is scaled by GAUGE_REFERENCE_S over the
# mean of those readings: it reads as on a host where one gauge reading
# takes GAUGE_REFERENCE_S. Wall costs are scaled by the gauge's wall time,
# CPU costs by its CPU time. Each metric is the median over the run.
GAUGE_REFERENCE_S = 0.004


def at_reference_speed(costs, gauges):
    """Costs scaled to the reference host speed, one gauge reading each."""
    costs, gauges = list(costs), list(gauges)
    if len(costs) != len(gauges):
        raise ValueError("%d costs but %d gauge readings" % (len(costs), len(gauges)))
    return [cost * GAUGE_REFERENCE_S / gauge for cost, gauge in zip(costs, gauges)]


def host_gauge_ms(record):
    """Median gauge reading (wall) around the timed operations, in ms: how
    fast the host ran during the run (GAUGE_REFERENCE_S is the reference)."""
    timed = record["reps"] if record["workload"] == "campaign-matrix" else record["ops"]
    return 1e3 * median(item["gauge_wall_s"] for item in timed)


def _scaled_median(items, cost, gauge_key):
    """Median of cost(item), each scaled by the item's own gauge reading."""
    return median(at_reference_speed([cost(i) for i in items],
                                     [i[gauge_key] for i in items]))


def _campaign_sim_s(rep):
    return sum(c["at_ns"] for c in rep["results"]) * 1e-9


def end_to_end(record):
    """The six end-to-end metrics, from untraced operations. An operation
    (a "cell") is one scenario run or one campaign cell; on campaign-matrix
    the timed unit is one repetition of the whole matrix."""
    if record["workload"] == "campaign-matrix":
        reps = record["reps"]
        return {
            "setup_s": median(at_reference_speed(record["setup_s"], record["setup_gauge_s"])),
            "sim_rate": rate(1.0, _scaled_median(
                reps, lambda r: r["wall_s"] / _campaign_sim_s(r), "gauge_wall_s")),
            "cells_per_s": rate(1.0, _scaled_median(
                reps, lambda r: r["wall_s"] / r["cells"], "gauge_wall_s")),
            "cpu_per_sim_s": _scaled_median(
                reps, lambda r: r["cpu_s"] / _campaign_sim_s(r), "gauge_cpu_s"),
            "cpu_ms_per_cell": _scaled_median(
                reps, lambda r: 1e3 * r["cpu_s"] / r["cells"], "gauge_cpu_s"),
            "peak_rss_mb": _peak_rss_mb(record),
        }
    ops = [op for op in record["ops"] if not op["traced"]]
    return {
        "setup_s": median(at_reference_speed(record["extra_setup_s"],
                                             record["extra_setup_gauge_s"])),
        "sim_rate": rate(1.0, _scaled_median(
            ops, lambda op: op["run_wall_s"] / op["sim_s"], "gauge_wall_s")),
        "cells_per_s": rate(1.0, _scaled_median(
            ops, lambda op: op["op_wall_s"], "gauge_wall_s")),
        "cpu_per_sim_s": _scaled_median(
            ops, lambda op: op["run_cpu_s"] / op["sim_s"], "gauge_cpu_s"),
        "cpu_ms_per_cell": _scaled_median(
            ops, lambda op: 1e3 * op["op_cpu_s"], "gauge_cpu_s"),
        "peak_rss_mb": _peak_rss_mb(record),
    }


# --- per-layer metrics ------------------------------------------------------

def _run_wall(ops):
    return median(op["run_wall_s"] for op in ops)


def _share_of_run(without, with_):
    """1 - wall without a layer / wall with it."""
    return 1.0 - _run_wall(without) / _run_wall(with_)


def _counters(ops):
    """Layer counters and kernel counts summed over `ops`."""
    total = {}
    for op in ops:
        for name, value in op["layers"].items():
            total[name] = total.get(name, 0) + value
        for name in ("events", "windows", "cross_domain_events"):
            total[name] = total.get(name, 0) + op[name]
    return total


def _propagate_us(ops):
    calls = sum(op["propagate_calls"] for op in ops)
    return 1e6 * ratio(sum(op["propagate_s"] for op in ops), calls)


def _transmit_us(ops):
    transmits = sum(op["extra"].get("transmits", 0) for op in ops)
    return 1e6 * ratio(sum(op["extra"].get("transmit_s", 0.0) for op in ops), transmits)


def _campaign_layer(sample):
    """campaign.* from set-up parse times, in-process cells and run_single()
    pairs: the campaign workload's traced run, or the campaign sample of
    another workload's traced run."""
    cells = sample["inproc_ops"]
    inproc = sample["inproc_cell_s"]
    return {
        "campaign.parse_ms": 1e3 * median(sample["parse_s"]),
        "campaign.cell_build_ms": 1e3 * median(c["build_s"] for c in cells),
        "campaign.cell_run_ms": 1e3 * median(c["run_wall_s"] for c in cells),
        "campaign.cell_inproc_ms_p50": 1e3 * percentile(inproc, 50),
        "campaign.cell_inproc_ms_p99": 1e3 * percentile(inproc, 99),
        "campaign.spawn_ms": 1e3 * (median(sample["run_single_worker_s"])
                                    - median(sample["run_single_in_process_s"])),
    }


def _common_layers(traced, untraced, single_queue, counted):
    """Metrics every workload measures the same way. `traced`: operations
    timed step by step; `untraced`: plain operations; `single_queue`:
    traced domains(1) operations, where the thread-local allocation count
    is exact; `counted`: the operations whose counters are reported."""
    c = _counters(counted)
    sharded = [op for op in untraced if op["windows"]]
    return {
        "scenario.declare_ms": 1e3 * median(op["declare_s"] for op in traced),
        "lint.scenario_ms": 1e3 * median(op["lint_s"] for op in traced),
        "scenario.build_ms": 1e3 * median(op["build_s"] for op in traced),
        "sim.events": c["events"],
        "sim.ns_per_event":
            1e9 * median(ratio(op["run_wall_s"], op["events"]) for op in untraced),
        "sim.allocs_per_event": ratio(sum(op["allocations"] for op in single_queue),
                                      sum(op["events"] for op in single_queue)),
        "sim.windows": c["windows"],
        "sim.cross_domain_events": c["cross_domain_events"],
        "sim.events_per_window": ratio(c["events"], c["windows"]),
        "sim.parallelism": median(op["run_cpu_s"] / op["run_wall_s"] for op in untraced),
        "sim.ctx_switches_per_window":
            median(op["context_switches"] / op["windows"] for op in sharded) if sharded else 0.0,
        "can.frames": c["can_frames"],
        "can.arbitration_rounds": c["can_arbitration_rounds"],
        "can.polls_per_frame": ratio(c["can_controller_polls"], c["can_frames"]),
        "can.gateway_forwarded": c["can_gateway_forwarded"],
        "rte.jobs": c["rte_jobs"],
        "rte.deadline_misses": c["rte_deadline_misses"],
        "monitor.checks": c["monitor_checks"],
        "monitor.anomalies": c["monitor_anomalies"],
        "learn.evaluations": c["learn_evaluations"],
        "core.problems_handled": c["core_problems_handled"],
        "skills.propagate_us": _propagate_us(traced),
        "platoon.maneuvers": c["platoon_maneuvers"],
        "mesh.transmissions": c["mesh_transmissions"],
        "mesh.deliveries": c["mesh_deliveries"],
        "mesh.losses": c["mesh_losses"],
        "mesh.transmit_us": _transmit_us(traced),
        "mesh.relays": c["mesh_relays"],
    }


def _campaign_layers(record, metrics):
    cells = record["inproc_ops"]
    metrics.update(_common_layers(cells, cells, [c for c in cells if c["domains"] == 1],
                                  cells))
    # domains-2 cells against their domains-1 twins, run for run.
    one = {c["outputs"]["key"]: c for c in cells if c["domains"] == 1}
    two = [c for c in cells if c["domains"] == 2 and c["outputs"]["key"] in one]
    wall_1 = sum(one[c["outputs"]["key"]]["run_wall_s"] for c in two)
    wall_2 = sum(c["run_wall_s"] for c in two)
    metrics.update(_campaign_layer(record))
    metrics.update({
        "sim.speedup_vs_1_domain": ratio(wall_1, wall_2),
        "sim.barrier_us_per_window": 1e6 * ratio(wall_2 - wall_1, sum(c["windows"] for c in two)),
        # The matrix's cells carry no benchmark beacons: a separate sample.
        "mesh.transmit_us": _transmit_us([record["mesh_sample"]]),
        "bench.trace_overhead":
            median(c["op_wall_s"] for c in cells) / median(record["inproc_cell_s"]),
    })
    return metrics


def per_layer(record):
    """Every per-layer metric. Counters and shares of a layer this workload
    does not use read 0; its timings come from a sample (see below)."""
    metrics = {name: 0.0 for name in PER_LAYER}
    if record["workload"] == "campaign-matrix":
        return _campaign_layers(record, metrics)

    ops = record["ops"]
    traced = [op for op in ops if op["traced"]]
    untraced = [op for op in ops if not op["traced"]]
    # Variants are compared with the plain operations of the same rounds.
    base = record["round_base"]
    if record["workload"] == "fleet-v2v":
        single_queue = [record["reference"]] if record["reference"]["traced"] else []
        one_domain, multi = record["one_domain"], base
    else:
        single_queue = traced
        one_domain, multi = base, record["two_domains"]
    metrics.update(_common_layers(traced, untraced, single_queue, traced[:1]))
    metrics.update({
        "sim.speedup_vs_1_domain": _run_wall(one_domain) / _run_wall(multi),
        "sim.barrier_us_per_window":
            1e6 * ratio(_run_wall(multi) - _run_wall(one_domain), multi[0]["windows"]),
        "mesh.share_of_run": _share_of_run(record["no_beacons"], base),
        "bench.trace_overhead":
            median(op["op_wall_s"] for op in traced) / median(op["op_wall_s"] for op in untraced),
    })
    if record["workload"] == "platoon-dual-bus":
        metrics["learn.share_of_run"] = _share_of_run(record["no_learned"], base)
    # Layers this workload's scenario lacks are timed on the campaign sample:
    # the campaign layer, and on the fleet (no skill graphs) propagate().
    sample = record["campaign_sample"]
    metrics.update(_campaign_layer(sample))
    if record["workload"] == "fleet-v2v":
        metrics["skills.propagate_us"] = _propagate_us(sample["inproc_ops"])
    return metrics
