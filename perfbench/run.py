#!/usr/bin/env python3
"""Builds the benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload adhoc --seed 1 --seconds 10 --trace 0

Workloads: adhoc, hot_churn, fanout. The library and the program
are built from source on first use (CMake, Release) under the directory
named by $CARGO_TARGET_DIR, default .bench_build, relative to the checkout
root. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: end-to-end metrics with --trace 0,
per-layer metrics with --trace 1. A traced run also writes its spans as
Chrome trace-event JSON into the build directory. Build output goes to
standard error. Exits non-zero, printing no result, when the build or the
run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("adhoc", "hot_churn", "fanout")
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-file", os.path.join(
            build_dir, f"trace-{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print(f"run failed with exit code {proc.returncode}", file=sys.stderr)
        return 1
    try:
        json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(proc.stdout)
        print("run printed no JSON result", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
