#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload dblp-paged --seed 1 --seconds 30 --trace 0

The first run configures and builds e2ebench/ (library included) in
Release mode under $CARGO_TARGET_DIR, or .bench_build when it is unset;
later runs rebuild incrementally.  --seconds defaults to run_seconds of
BENCHMARK.json, the run length the metric bounds were set on.  Stores and trace files go to
<build dir>/e2e-work.  Build output goes to stderr, so the last line on
stdout is the benchmark's JSON result.  Exits non-zero, printing no
result, when the sources or the build are missing or broken, or when an
answer is wrong.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dblp-paged", "dblp-bp", "dblp-update")


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("e2ebench: library sources (src/) not found next to "
                 "e2ebench/; nothing to build")
    cmake_dir = os.path.join(build_dir, "e2ebench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs,
                  "--target", "e2e_bench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("e2ebench: build step failed: " + " ".join(cmd))
    return os.path.join(cmake_dir, "e2e_bench")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        run_seconds = json.load(f)["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(build_dir, "e2e-work")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
