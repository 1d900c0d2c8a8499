#!/usr/bin/env python3
"""Run one adscope benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds the perfbench binary from
the checkout's sources into .bench_build/perfbench (RelWithDebInfo; a
no-op when up to date), then replaces itself with the binary, whose last
stdout line is the JSON result. Generated inputs and span files go to
.perfbench/. Build output goes to stderr.
"""
import argparse
import fcntl
import os
import subprocess
import sys

WORKLOADS = ("study-serial", "study-sharded", "query-serve")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    return parser.parse_args()


def build():
    """Configures once, then lets the build tool decide what is stale."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no adscope sources next to perfbench/ "
                 "(run from the root of a source checkout)")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                      "-j", jobs])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                sys.exit("perfbench: build failed: " + " ".join(step))


def main():
    args = parse_args()
    build()
    sys.stdout.flush()
    os.execv(BINARY, [BINARY, "--workload", args.workload,
                      "--seed", str(args.seed), "--seconds", str(args.seconds),
                      "--trace", args.trace,
                      "--work-dir", os.path.join(ROOT, ".perfbench")])


if __name__ == "__main__":
    main()
