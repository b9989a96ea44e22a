#!/usr/bin/env python3
"""End-to-end simulator benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fleet-v2v --seed 1 --seconds 10 --trace 0

Workloads: fleet-v2v, platoon-dual-bus, campaign-matrix (see
perfbench/README.md). The first call configures and builds the two drivers
under .bench_build/perfbench; later calls rebuild only what changed.
--trace 1 runs perfbench_driver_traced, the only binary that links the
allocation-counting hook. The driver measures for --seconds; this script
checks the outputs, derives the metrics, writes the result with the host
fingerprint to .bench_build/perfbench/results/, prints a table and, as its
last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
and writes a Chrome trace-event file next to the result.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics  # noqa: E402

WORKLOADS = ("fleet-v2v", "platoon-dual-bus", "campaign-matrix")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
TRACED_DRIVER = os.path.join(BUILD_DIR, "perfbench_driver_traced")
CAMPAIGN = os.path.join("perfbench", "campaign-matrix.campaign")
CORPUS = os.path.join("fixtures", "corpus")
# Wall-time allowance for the driver processes of one run, after the build.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build both drivers (a no-op when current)."""
    for needed in ("CMakeLists.txt", "src", CORPUS, os.path.join("perfbench", "CMakeLists.txt")):
        if not os.path.exists(needed):
            fail("run from the repository root: %s is missing" % needed)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("cmake configure failed")
    command = ["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver",
               "perfbench_driver_traced", "-j", str(os.cpu_count() or 1)]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def git_sha():
    if not os.path.exists(".git"):
        return None
    result = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_fingerprint(build_info):
    """Results compare only against a baseline with the same host fields."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": "gcc " + build_info["compiler"],
        "flags": build_info["flags"].strip(),
        "build_type": build_info["build_type"],
        "git_sha": git_sha(),
    }


def run_driver(args, seconds, trace_file, log_path, deadline):
    command = [TRACED_DRIVER if args.trace else DRIVER, "run", args.workload, "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", str(args.trace),
               "--campaign", CAMPAIGN, "--corpus", CORPUS]
    if args.trace:
        command += ["--trace-out", trace_file]
    with open(log_path, "w") as log:
        try:
            result = subprocess.run(command, stdout=subprocess.PIPE, stderr=log, text=True,
                                    timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail("driver timed out (log: %s)" % log_path)
    if result.returncode != 0:
        with open(log_path) as log:
            sys.stderr.write(log.read()[-4000:])
        fail("driver exited with status %d" % result.returncode)
    lines = result.stdout.strip().splitlines()
    if not lines:
        fail("driver printed no record")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    out_dir = os.path.join(BUILD_DIR, "results")
    os.makedirs(out_dir, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    trace_file = os.path.join(out_dir, tag + ".trace.json")

    # This host's speed differs from process to process (placement of the
    # process on the shared cores), by up to 1.8x on set-up alone. Untraced
    # runs therefore split the measured time over several driver processes
    # and pool their repetitions, so one run samples several placements.
    processes = 1 if args.trace else metrics.PROCESSES
    records = []
    attempted = failed = 0
    problems = []
    build_info = None
    for part in range(processes):
        raw = run_driver(args, args.seconds / processes, trace_file,
                         os.path.join(out_dir, "%s-part%d.log" % (tag, part)), deadline)
        build_info = raw["build"]
        part_attempted, part_failed, part_problems = metrics.check(raw["record"])
        attempted += part_attempted
        failed += part_failed
        problems += ["process %d: %s" % (part, p) for p in part_problems]
        records.append(raw["record"])

    pooled = metrics.pool(records)
    if args.trace:
        values, catalogue = metrics.per_layer(records[0]), metrics.PER_LAYER
    else:
        values, catalogue = metrics.end_to_end(pooled), metrics.END_TO_END
    gauge_ms = metrics.host_gauge_ms(pooled)
    host = host_fingerprint(build_info)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": catalogue[name][0]}
                    for name in catalogue},
    }
    with open(os.path.join(out_dir, tag + ".json"), "w") as handle:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "host": host, "host_gauge_ms": gauge_ms,
                   "problems": problems,
                   "result": result}, handle, indent=1)

    print("host: " + json.dumps(host, sort_keys=True))
    print("host gauge: %.3f ms per reading (timings are scaled to %.3f ms)"
          % (gauge_ms, 1e3 * metrics.GAUGE_REFERENCE_S))
    for problem in problems[:20]:
        print("problem: " + problem)
    print("%s seed %d: %d operations, %d failed" % (args.workload, args.seed, attempted, failed))
    for name, (unit, better) in catalogue.items():
        print("  %-32s %14.6g %-12s (%s is better)" % (name, values[name], unit, better))
    if args.trace:
        print("trace: " + trace_file)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
