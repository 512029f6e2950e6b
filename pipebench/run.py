#!/usr/bin/env python3
"""Builds and runs the Fig. 1 pipeline benchmark.

Run from the repository root:

    python3 pipebench/run.py --workload dashboard_rollup --seed 1 --seconds 12 --trace 0

The platform libraries under src/ and the benchmark are compiled into
.bench_build/pipebench (Release) on first use; later runs rebuild only what
changed. Build output goes to stderr, so the last stdout line is the
benchmark's JSON result. With --trace 1 the spans are written to
.bench_build/pipebench/spans/<workload>-<seed>.tsv.

    python3 pipebench/run.py --selftest

builds and runs the benchmark's own tests instead.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "pipebench")
RUN_TIMEOUT_S = 170


def build(target):
    """Configures (once) and builds `target`; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("pipebench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    path = os.path.join(BUILD_DIR, target)
    return path if os.path.exists(path) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        binary = build("pipebench_selftest")
        if binary is None:
            return 1
        return subprocess.run([binary]).returncode

    if args.workload is None or args.seed is None or args.seconds is None or args.trace is None:
        parser.error("--workload, --seed, --seconds and --trace are required")
    binary = build("pipeline_bench")
    if binary is None:
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        spans_dir = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir, "%s-%d.tsv" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("pipebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
