#!/usr/bin/env python3
"""Builds and runs skatsim's end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep|serve|fleet|design \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The program is built from the checkout's own sources into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The
benchmark binary prints a human-readable report; this script passes it
through and ends with one JSON line holding the end-to-end metrics of
BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1). It exits
non-zero, without a result line, when the build fails or a metric is
missing, and non-zero after the result line when an output check failed.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 165


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out_dir):
    """Configures once and builds incrementally; output goes to stderr."""
    jobs = str(max(1, os.cpu_count() or 1))
    if not (out_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(out_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configuring the benchmark failed")
    if subprocess.run(["cmake", "--build", str(out_dir), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("building the benchmark failed")


def commit_id():
    # Only ask git when the checkout is itself a repository, so nothing
    # outside the checkout is read.
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def select_metrics(measured, spec, end_to_end, must_be_positive):
    """Keeps the metrics BENCHMARK.json names, checking name and unit.

    BENCHMARK.json is the only list of metric names: a measured metric it
    does not name is an error, an end-to-end metric that was not measured
    is an error, and a per-layer metric the workload does not exercise is
    reported as 0.
    """
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    for name, got in measured.items():
        if name not in units:
            fail(f"metric {name} is not named in BENCHMARK.json")
        if got["unit"] != units[name]:
            fail(f"metric {name} has unit {got['unit']}, "
                 f"BENCHMARK.json says {units[name]}")
    chosen = {}
    for entry in spec["end_to_end"] if end_to_end else spec["per_layer"]:
        name = entry["name"]
        got = measured.get(name)
        if got is None:
            if end_to_end:
                fail(f"metric {name} was not measured")
            got = {"value": 0, "unit": entry["unit"]}
        value = got["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {name} is not a finite number")
        if end_to_end and must_be_positive and value <= 0:
            fail(f"end-to-end metric {name} is {value}")
        chosen[name] = {"value": value, "unit": entry["unit"]}
    return chosen


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())

    out_dir = build_dir()
    build(out_dir)
    if args.self_test:
        sys.exit(subprocess.run([str(out_dir / "perfbench_test")]).returncode)

    if (args.workload is None or args.seed is None or args.seconds is None
            or args.trace is None):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    work_dir = out_dir / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    command = [str(out_dir / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--workdir", os.path.relpath(work_dir, ROOT),
               "--commit", commit_id()]
    try:
        run = subprocess.run(command, cwd=ROOT, capture_output=True,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the {args.workload} workload did not finish in "
             f"{RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    if not lines:
        fail(f"the benchmark printed nothing (exit {run.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"the benchmark ended without a result (exit {run.returncode})")
    for line in lines[:-1]:
        print(line)

    metrics = select_metrics(result["metrics"], spec, args.trace == 0,
                             bool(result["correct"]))
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    sys.stdout.flush()
    sys.exit(0 if result["correct"] and run.returncode == 0 else 1)


if __name__ == "__main__":
    main()
