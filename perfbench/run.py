#!/usr/bin/env python3
"""Builds the benchmark against the engine sources and runs one workload.

    python3 perfbench/run.py --workload <solo_scan|io_cpu_batch>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selfcheck

Run from the root of a checkout. The first call configures and builds an
optimized copy of the engine and the benchmark in .bench_build/ (a few
minutes); later calls rebuild only what changed. Build output goes to
standard error, so the last line of standard output is the benchmark's JSON
result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("solo_scan", "io_cpu_batch")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: engine sources not found in %s/src; run from the "
                 "root of a checkout" % ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j4", "--target", "perfbench",
                  "reference_selfcheck"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("run.py: build step failed: %s" % " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="check the reference evaluator on hand-worked "
                             "answers instead of running a workload")
    args = parser.parse_args()
    if not args.selfcheck and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    build()
    if args.selfcheck:
        cmd = [os.path.join(BUILD, "reference_selfcheck")]
    else:
        cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
