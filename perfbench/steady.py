#!/usr/bin/env python3
"""Steadiness check for the headline benchmark.

    python3 perfbench/steady.py N [--workload W ...] [--seconds S] [--first-seed K]

Runs every workload (or the ones named) N times, each with its own seed
(K, K+1, ...), through perfbench/run.py, and prints for each end-to-end
metric the median, the quartiles, the interquartile spread and the max/min
spread, both as shares of the median. A metric whose interquartile spread
exceeds its bound in BENCHMARK.json is flagged SPREAD (setup_s is shown but
its spread is not held to the bound), and one above a third of its bound is
marked "near". Exits 1 when a metric is flagged, a run is not correct, or the
runs disagree on the share of failed invocations.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("run.py failed for %s seed %d" % (workload, seed))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("runs", type=int)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    if args.runs < 2:
        sys.exit("need at least two runs")
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    bad = False
    for workload in workloads:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(workload, seed, args.seconds)
            results.append(result)
            print("%s seed %d: correct=%s attempted=%d failed=%d" % (
                workload, seed, result["correct"], result["attempted"],
                result["failed"]), flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        if not all(r["correct"] for r in results) or len(shares) > 1:
            print("%s: runs not all correct, or failed shares differ: %s"
                  % (workload, sorted(shares)))
            bad = True
        print("\n%s, %d runs" % (workload, args.runs))
        print("%-16s %14s %14s %14s %8s %8s %6s" % (
            "metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound"))
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            iqr = (q3 - q1) / median if median else float("inf")
            spread = (max(values) - min(values)) / median if median else 0
            flag = ""
            if iqr > bound:
                flag = "SPREAD" if name != "setup_s" else "(not held)"
                bad = bad or name != "setup_s"
            elif iqr > bound / 3:
                flag = "near"
            print("%-16s %14.6g %14.6g %14.6g %8.4f %8.4f %6.3f %s" % (
                name, median, q1, q3, iqr, spread, bound, flag))
        print(flush=True)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
