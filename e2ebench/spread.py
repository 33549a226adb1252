#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

Run from the repository root:

    python3 e2ebench/spread.py --seeds 1-10 --sets 2

Each set runs every workload once per seed, one workload after another.
For every set, workload and end-to-end metric it prints the median and
the interquartile range (statistics.quantiles(values, n=4)) as a share
of the median, next to the metric's bound from BENCHMARK.json.  A spread
above the bound is marked, and so is one above a third of it.  With two
or more sets it also prints how far each later set's median is from the
first set's, in the metric's worse direction, against the same bound.
Exits non-zero if a run fails or a spread or gap exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    start = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    elapsed = time.monotonic() - start
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result, elapsed


def mark(share, bound):
    if share > bound:
        return "  OVER BOUND"
    if share > bound / 3:
        return "  over bound/3"
    return ""


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    ok = True
    # medians[workload][metric] lists one median per set.
    medians = {w: {name: [] for name in metrics} for w in args.workloads}
    for set_no in range(1, args.sets + 1):
        for workload in args.workloads:
            values = {name: [] for name in metrics}
            for seed in parse_seeds(args.seeds):
                code, result, elapsed = run_once(workload, seed, args.seconds)
                good = code == 0 and result is not None and result["correct"]
                ok = ok and good
                shown = "" if result is None else " ".join(
                    "%s=%.4g" % (name, m["value"])
                    for name, m in result["metrics"].items())
                print("set %d %s seed %d: exit %d, %.1f s%s %s" %
                      (set_no, workload, seed, code, elapsed,
                       "" if good else " FAILED", shown), flush=True)
                if result is None:
                    continue
                for name in values:
                    metric = result["metrics"].get(name)
                    if metric is not None:
                        values[name].append(metric["value"])
            for name, vals in values.items():
                if len(vals) < 2:
                    ok = False
                    print("  %-26s too few values" % name, flush=True)
                    continue
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                bound = metrics[name]["bound"]
                ok = ok and spread <= bound
                medians[workload][name].append(med)
                print("  %-26s median %-14.6g spread %6.3f  bound %s%s" %
                      (name, med, spread, bound, mark(spread, bound)),
                      flush=True)

    if args.sets > 1:
        print("gap of each set's median from set 1's, in the worse direction:")
        for workload, by_name in medians.items():
            for name, meds in by_name.items():
                if len(meds) < 2:
                    continue
                sign = 1 if metrics[name]["better"] == "lower" else -1
                gaps = [sign * (m - meds[0]) / meds[0] for m in meds[1:]]
                bound = metrics[name]["bound"]
                ok = ok and max(gaps) <= bound
                print("  %-12s %-26s medians %s  gap %s  bound %s%s" %
                      (workload, name, " ".join("%.6g" % m for m in meds),
                       " ".join("%+.3f" % g for g in gaps), bound,
                       mark(max(gaps), bound)), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
