#!/usr/bin/env python3
"""Runs a workload over several seeds and reports each metric's spread.

Usage (from the repository root):
  python3 ccbench/spread.py --workloads serve-read,cold-paper --runs 10
        [--first-seed 1] [--trace 0]

For every end-to-end metric (or per-layer metric with --trace 1) prints the
median and the interquartile distance as a share of the median, the way
statistics.quantiles(values, n=4) gives the quartiles, next to the bound
BENCHMARK.json sets and a third of it. Runs are sequential.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, timeout=600)
    lines = [l for l in out.stdout.splitlines() if l.strip()]
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-2000:])
        raise SystemExit("%s seed %d failed (exit %d)" %
                         (workload, seed, out.returncode))
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for workload in args.workloads.split(","):
        results = [run_once(workload, args.first_seed + i,
                            bench["run_seconds"], args.trace)
                   for i in range(args.runs)]
        shares = {r["failed"] / r["attempted"] for r in results}
        print("%s: %d runs, all correct: %s, failed shares: %s" %
              (workload, len(results), all(r["correct"] for r in results),
               sorted(shares)))
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread >= bound / 3:
                flag = "  <-- above a third of the bound"
            print("  %-40s median %12.4f  spread %6.3f  bound %s%s" %
                  (name, med, spread, bound, flag))
            print("      runs: %s" % " ".join("%.4g" % v for v in vals))


if __name__ == "__main__":
    main()
