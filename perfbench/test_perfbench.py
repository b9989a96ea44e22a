#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the repository root:

    python3 perfbench/test_perfbench.py

They cover the rate, percentile and host-speed arithmetic, doctored counters and
verdicts being counted as failed operations, the campaign matrix linting
clean (this builds perfbench_driver), and BENCHMARK.json naming exactly the
metrics run.py prints.
"""

import copy
import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics  # noqa: E402
import run  # noqa: E402


def scenario_op(outputs, traced=0, domains=4, run_wall_s=0.5, events=1000, windows=10):
    return {
        "traced": traced, "domains": domains, "declare_s": 0.001, "lint_s": 0.002,
        "build_s": 0.003, "setup_s": 0.004, "propagate_s": 0.0, "propagate_calls": 0,
        "run_wall_s": run_wall_s, "run_cpu_s": 2 * run_wall_s, "op_wall_s": run_wall_s + 0.01,
        "op_cpu_s": 2 * run_wall_s + 0.01, "sim_s": 10.0, "events": events,
        "windows": windows, "cross_domain_events": 5, "context_switches": 40,
        "allocations": 0, "gauge_wall_s": 0.004, "gauge_cpu_s": 0.004,
        "violation": "", "layers": {"can_frames": 0,
                                                      "can_controller_polls": 0},
        "outputs": copy.deepcopy(outputs), "extra": {},
    }


def fleet_record():
    outputs = {"jobs": [3000, 3000, 3000], "received": [7, 7, 7], "digest": [1, 2, 3],
               "transmissions": 10, "deliveries": 20, "losses": 0}
    alt = dict(outputs, digest=[4, 5, 6])
    return {
        "workload": "fleet-v2v", "vehicles": 3, "expected_jobs_per_vehicle": 3000,
        "warm_up": [scenario_op(outputs, run_wall_s=0.01)],
        "ops": [scenario_op(outputs) for _ in range(3)],
        "extra_setup_s": [0.001, 0.002, 0.003, 0.005],
        "extra_setup_gauge_s": [0.004, 0.004, 0.004, 0.004],
        "reference": scenario_op(outputs, domains=1),
        "alt_seed": scenario_op(alt, domains=1),
        "peak_rss_kb": 2048,
    }


def campaign_cell(key, domains, probe=False, status="ok", signature="ok reason=",
                  verdict='{"status":"ok"}'):
    return {"key": key, "domains": domains, "probe": 1 if probe else 0, "status": status, "signature": signature,
            "fp": str(hash(verdict)), "at_ns": 500_000_000, "verdict": verdict}


def campaign_record():
    probe = "violation reason=unknown bus gateway"
    cells = [campaign_cell("a", 1), campaign_cell("a", 2),
             campaign_cell("p", 1, True, "violation", probe, '{"status":"violation"}'),
             campaign_cell("p", 2, True, "violation", probe, '{"status":"violation"}')]
    rep = {"wall_s": 0.01, "cpu_s": 0.02, "gauge_wall_s": 0.004, "gauge_cpu_s": 0.004,
           "cells": 4, "skipped": 0, "results": cells}
    return {
        "workload": "campaign-matrix", "lint_errors": 0, "lint_warnings": 0,
        "known_signatures": [probe], "setup_s": [0.003, 0.001, 0.002],
        "setup_gauge_s": [0.004, 0.004, 0.004],
        "reps": [rep, copy.deepcopy(rep)],
        "seed_probe": {"outputs": {"v2v_losses": 3}},
        "alt_seed": {"outputs": {"v2v_losses": 4}},
        "peak_rss_kb": 3072,
    }


class Arithmetic(unittest.TestCase):
    def test_nearest_rank_percentile(self):
        samples = list(range(100, 0, -1))
        self.assertEqual(metrics.percentile(samples, 50), 50)
        self.assertEqual(metrics.percentile(samples, 99), 99)
        self.assertEqual(metrics.percentile(samples, 100), 100)
        self.assertEqual(metrics.percentile([7.0], 99), 7.0)
        self.assertEqual(metrics.percentile([1, 2, 3, 4], 50), 2)
        with self.assertRaises(ValueError):
            metrics.percentile([], 50)
        with self.assertRaises(ValueError):
            metrics.percentile([1], 0)

    def test_median(self):
        self.assertEqual(metrics.median([3, 1, 2]), 2)
        self.assertEqual(metrics.median([4, 1, 2, 3]), 2.5)
        with self.assertRaises(ValueError):
            metrics.median([])

    def test_rates(self):
        self.assertEqual(metrics.rate(10.0, 0.5), 20.0)
        with self.assertRaises(ValueError):
            metrics.rate(1.0, 0.0)
        self.assertEqual(metrics.ratio(3, 0), 0.0)
        self.assertEqual(metrics.ratio(3, 4), 0.75)

    def test_at_reference_speed(self):
        ref = metrics.GAUGE_REFERENCE_S
        # A host twice as slow as the reference reads half the cost.
        self.assertEqual(metrics.at_reference_speed([1.0, 3.0], [2 * ref, ref]), [0.5, 3.0])
        with self.assertRaises(ValueError):
            metrics.at_reference_speed([1.0], [])

    def test_scenario_end_to_end(self):
        record = fleet_record()
        outputs = record["reference"]["outputs"]
        # Operations of 0.50 s on the reference host; on a host running at
        # 1/k of its speed they take k times longer and so does the gauge.
        ref = metrics.GAUGE_REFERENCE_S
        record["ops"] = []
        for k in (1.0, 2.0, 1.5, 1.0, 3.0):
            op = scenario_op(outputs, run_wall_s=0.5 * k)
            op.update(op_wall_s=0.51 * k, op_cpu_s=1.01 * k,
                      gauge_wall_s=ref * k, gauge_cpu_s=ref * k)
            record["ops"].append(op)
        record["ops"][4]["run_wall_s"] = 3.0   # the median is robust to one outlier
        record["ops"].append(scenario_op(outputs, traced=1, run_wall_s=0.01))
        record["extra_setup_gauge_s"] = [ref, 2 * ref, ref, ref]
        values = metrics.end_to_end(record)   # warm-up and traced ops excluded
        self.assertAlmostEqual(values["sim_rate"], 10 / 0.5)
        self.assertAlmostEqual(values["cells_per_s"], 1 / 0.51)
        self.assertAlmostEqual(values["cpu_per_sim_s"], 0.1)
        self.assertAlmostEqual(values["cpu_ms_per_cell"], 1010.0)
        # Set-ups 0.001, 0.001 (0.002 at half speed), 0.003, 0.005.
        self.assertAlmostEqual(values["setup_s"], 0.002)
        self.assertEqual(values["peak_rss_mb"], 2.0)

    def test_campaign_layer_from_a_sample(self):
        sample = {"parse_s": [0.003, 0.001, 0.002],
                  "inproc_cell_s": [0.004, 0.001, 0.003, 0.002],
                  "inproc_ops": [scenario_op({}, run_wall_s=0.002),
                                 scenario_op({}, run_wall_s=0.004)],
                  "run_single_worker_s": [0.006, 0.005, 0.007],
                  "run_single_in_process_s": [0.002, 0.002, 0.001]}
        values = metrics._campaign_layer(sample)
        self.assertAlmostEqual(values["campaign.parse_ms"], 2.0)
        self.assertAlmostEqual(values["campaign.cell_build_ms"], 3.0)
        self.assertAlmostEqual(values["campaign.cell_run_ms"], 3.0)
        self.assertAlmostEqual(values["campaign.cell_inproc_ms_p50"], 2.0)
        self.assertAlmostEqual(values["campaign.cell_inproc_ms_p99"], 4.0)
        self.assertAlmostEqual(values["campaign.spawn_ms"], 4.0)

    def test_campaign_end_to_end(self):
        record = campaign_record()
        # The second repetition ran at half speed: so did its gauge.
        record["reps"][1].update(wall_s=0.02, cpu_s=0.04, gauge_wall_s=0.008, gauge_cpu_s=0.008)
        values = metrics.end_to_end(record)
        self.assertAlmostEqual(values["cells_per_s"], 400.0)
        self.assertAlmostEqual(values["sim_rate"], 200.0)   # 4 cells x 0.5 s / 0.01 s
        self.assertAlmostEqual(values["cpu_ms_per_cell"], 5.0)
        self.assertAlmostEqual(values["cpu_per_sim_s"], 0.01)
        self.assertEqual(values["setup_s"], 0.002)
        self.assertEqual(values["peak_rss_mb"], 3.0)


class DoctoredOutputs(unittest.TestCase):
    def test_clean_records_pass(self):
        self.assertEqual(metrics.check(fleet_record()), (4, 0, []))
        self.assertEqual(metrics.check(campaign_record()), (8, 0, []))

    def test_doctored_delivery_counter_fails_the_operation(self):
        record = fleet_record()
        record["ops"][1]["outputs"]["deliveries"] += 1
        attempted, failed, problems = metrics.check(record)
        self.assertEqual((attempted, failed), (4, 1))
        self.assertTrue(any("deliveries" in p for p in problems))

    def test_doctored_job_count_fails_the_operation(self):
        record = fleet_record()
        record["ops"][2]["outputs"]["jobs"][0] = 2999
        self.assertEqual(metrics.check(record)[1], 1)

    def test_doctored_warm_up_operation_fails(self):
        record = fleet_record()
        record["warm_up"][0]["outputs"]["jobs"][1] = 2999
        self.assertEqual(metrics.check(record)[1], 1)

    def test_output_differing_from_reference_fails(self):
        record = fleet_record()
        record["workload"] = "platoon-dual-bus"
        record["ops"][0]["outputs"]["digest"][2] = 99
        self.assertEqual(metrics.check(record)[1], 1)

    def test_seed_that_changes_nothing_is_incorrect(self):
        record = fleet_record()
        record["alt_seed"]["outputs"] = copy.deepcopy(record["reference"]["outputs"])
        attempted, failed, problems = metrics.check(record)
        self.assertEqual(failed, 0)
        self.assertTrue(problems)

    def test_doctored_twin_verdict_fails_the_cell(self):
        record = campaign_record()
        record["reps"][0]["results"][1]["verdict"] = '{"status":"ok","x":1}'
        attempted, failed, problems = metrics.check(record)
        self.assertEqual(failed, 1)
        self.assertTrue(any("twin" in p for p in problems))

    def test_probe_outside_the_corpus_fails(self):
        record = campaign_record()
        record["reps"][1]["results"][2]["signature"] = "crash signal=11"
        self.assertEqual(metrics.check(record)[1], 1)

    def test_non_probe_failure_fails(self):
        record = campaign_record()
        record["reps"][0]["results"][0]["status"] = "violation"
        self.assertEqual(metrics.check(record)[1], 1)

    def test_failed_mesh_transmit_sample_is_incorrect(self):
        record = campaign_record()
        record["mesh_sample"] = scenario_op({}, domains=1)
        self.assertEqual(metrics.check(record)[2], [])
        record["mesh_sample"]["violation"] = "unknown medium endpoint"
        attempted, failed, problems = metrics.check(record)
        self.assertEqual(failed, 0)
        self.assertTrue(any("mesh transmit sample" in p for p in problems))

    def test_verdict_changing_between_repetitions_fails(self):
        record = campaign_record()
        record["reps"][1]["results"][0]["fp"] = "doctored"
        self.assertEqual(metrics.check(record)[1], 1)


class Catalogue(unittest.TestCase):
    def test_benchmark_json_names_the_printed_metrics(self):
        with open("BENCHMARK.json") as handle:
            spec = json.load(handle)
        for section, catalogue in (("end_to_end", metrics.END_TO_END),
                                   ("per_layer", metrics.PER_LAYER)):
            declared = {m["name"]: (m["unit"], m["better"]) for m in spec[section]}
            self.assertEqual(declared, catalogue)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


class CampaignMatrix(unittest.TestCase):
    def test_matrix_lints_with_no_errors_or_warnings(self):
        run.build()
        result = subprocess.run([run.DRIVER, "lint", run.CAMPAIGN], capture_output=True,
                                text=True)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertTrue(result.stdout.startswith("errors=0 warnings=0 cells=768"),
                        result.stdout)


if __name__ == "__main__":
    unittest.main()
