#!/usr/bin/env python3
"""Builds the tabrep benchmark from source and runs one workload.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR, default
.bench_build; later calls only rebuild what changed. Build output goes
to stderr. The binary's report goes to stdout, and the last stdout line
is one JSON object holding exactly the metrics BENCHMARK.json declares:
the end_to_end ones with --trace 0, the per_layer ones with --trace 1.
A per_layer metric of a layer the workload does not run reads 0.

Exit codes: 0 all output checks passed; 1 an output check failed (the
result line is still printed, with "correct": false); anything else is
a build, run or validation error, with no result line.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            home = [l for l in f if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or home[0].split("=", 1)[1].strip() != HERE:
            shutil.rmtree(build_dir)  # configured for another checkout
    if not os.path.exists(cache):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    built = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr)
    if built.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no tabrep sources under {ROOT}/src")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    declared = spec["per_layer" if args.trace == "1" else "end_to_end"]

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    binary = build(build_dir)
    out_dir = os.path.join(build_dir, "traces")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    result_lines = [l for l in lines if l.startswith("PERFBENCH_RESULT ")]
    for line in lines:
        if not line.startswith("PERFBENCH_RESULT "):
            print(line)
    if proc.returncode not in (0, 1) or len(result_lines) != 1:
        fail(f"perfbench exited with {proc.returncode}", 3)
    raw = json.loads(result_lines[0][len("PERFBENCH_RESULT "):])

    metrics = {}
    for m in declared:
        name, unit = m["name"], m["unit"]
        got = raw["metrics"].get(name)
        if got is None and args.trace == "1":
            got = {"value": 0, "unit": unit}  # layer not run by this workload
        if got is None:
            fail(f"{args.workload} did not report {name}", 3)
        value = got["value"]
        if got["unit"] != unit or not isinstance(value, (int, float)) or \
                not math.isfinite(value):
            fail(f"{name}: bad value {got}", 3)
        if args.trace == "0" and value <= 0:
            fail(f"{name}: end-to-end metric must be positive, got {value}", 3)
        metrics[name] = {"value": value, "unit": unit}
    result = {"correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
