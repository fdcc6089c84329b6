#!/usr/bin/env python3
"""Builds perfbench from the repository sources and runs one workload.

    python3 perfbench/run.py --workload rx_stream --seed 1 --seconds 10 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); the first run compiles, later runs only
check that the build is current. The benchmark's last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Before passing it on, this script checks that line against BENCHMARK.json:
--trace 0 must report exactly its end_to_end metrics, --trace 1 exactly its
per_layer metrics, each with the declared unit. The exit code is non-zero
when the build fails, a correctness check fails or the line does not match.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures (once) and builds the benchmark; returns True on success."""
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "build.ninja")) and not os.path.exists(
            os.path.join(out_dir, "Makefile")):
        configure = ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("perfbench: build failed (log: %s)\n" % log_path)
                return False
    return True


def expected_metrics(spec, trace):
    """{name: unit} the result line must carry for this mode."""
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def validate_result(line, spec, trace):
    """Returns a list of problems with the result line (empty when valid)."""
    try:
        result = json.loads(line)
    except ValueError as err:
        return ["last line is not JSON: %s" % err]
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return ["result keys must be exactly %s" % sorted(RESULT_KEYS)]
    problems = []
    if not isinstance(result["correct"], bool):
        problems.append("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool) or result[key] < 0:
            problems.append("%s must be a whole number" % key)
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted must be at least 1")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics must be an object"]
    want = expected_metrics(spec, trace)
    if set(metrics) != set(want):
        problems.append("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(want) - set(metrics)), sorted(set(metrics) - set(want))))
    for name, metric in metrics.items():
        if not isinstance(metric, dict) or set(metric) != {"value", "unit"}:
            problems.append("%s must have exactly value and unit" % name)
            continue
        value = metric["value"]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append("%s value must be a number" % name)
        if name in want and metric["unit"] != want[name]:
            problems.append("%s unit %r, BENCHMARK.json says %r" % (
                name, metric["unit"], want[name]))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as spec_file:
        spec = json.load(spec_file)
    out_dir = build_dir()
    if not build(out_dir):
        return 1
    command = [os.path.join(out_dir, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out", os.path.join(
            out_dir, "trace-%s-%d.json" % (args.workload, args.seed))]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=args.seconds + 150)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: timed out\n")
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    problems = validate_result(lines[-1], spec, args.trace) if run.stdout else ["no output"]
    if problems:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        for problem in problems:
            sys.stderr.write("perfbench: %s\n" % problem)
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
