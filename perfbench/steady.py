#!/usr/bin/env python3
"""Steadiness check: runs each workload repeatedly and reports the spread.

    python3 perfbench/steady.py [--runs 10]

Runs go round-robin over every workload in BENCHMARK.json (one untraced run
of each, then the next seed), with seeds 1 to --runs, through the command
BENCHMARK.json names. For every end-to-end metric it prints the median, the
first and third quartiles (statistics.quantiles, n=4) and the spread, the
distance between the quartiles as a share of the median. A metric whose
spread is wider than its bound in BENCHMARK.json is flagged and makes the
exit code 1, as does a share of failed operations that differs between runs.
Run from the root of a checkout.
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


def run_once(spec, workload, seed):
    cmd = list(spec["command"]) + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]),
                                   "--trace", "0"]
    t0 = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("steady.py: %s failed with code %d" % (" ".join(cmd),
                                                        done.returncode))
    result = json.loads(lines[-1])
    result["wall_s"] = time.monotonic() - t0
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {n: [] for n in names}
    for seed in range(1, args.runs + 1):
        for name in names:
            r = run_once(spec, name, seed)
            results[name].append(r)
            print("run %2d %-13s %.1f s  correct=%s failed %d/%d" % (
                seed, name, r["wall_s"], r["correct"], r["failed"],
                r["attempted"]), flush=True)

    flagged = []
    for name, runs in results.items():
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print("\n%s (%d runs): failed share %s, all correct: %s" % (
            name, len(runs), ", ".join("%.6f" % s for s in shares),
            all(r["correct"] for r in runs)))
        print("  %-26s %14s %14s %14s %8s %6s" % (
            "metric", "median", "q1", "q3", "spread", "bound"))
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            med, q1, q3, s = spread(values)
            bound = bounds[metric]
            flag = ""
            if s > bound:
                flag = "  WIDER THAN BOUND"
                flagged.append((name, metric))
            elif s > bound / 3:
                flag = "  above a third of the bound"
            print("  %-26s %14.6g %14.6g %14.6g %8.4f %6.2f%s" % (
                metric, med, q1, q3, s, bound, flag))
        if len(shares) > 1:
            flagged.append((name, "failed share"))
        if not all(r["correct"] for r in runs):
            flagged.append((name, "correct"))

    if flagged:
        print("\nflagged: " + ", ".join("%s/%s" % f for f in flagged))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
