#!/usr/bin/env python3
"""Steadiness report: how much each end-to-end metric moves between runs.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 10]
                                    [--first-seed 1] [--sets 1|2]

Runs perfbench/run.py once per (workload, seed) with BENCHMARK.json's
run_seconds, then prints for every workload and metric the median, the
quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1) / median
against the metric's bound. A spread above the bound is flagged FAIL,
above a third of it WARN. With --sets 2 a second set of runs on fresh
seeds follows, and each metric's median drift between the sets (in its
"worse" direction) is checked against the bound too. Every setup_s is
listed explicitly at the end.
Raw results are saved under .perfbench/steadiness/.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    started = time.time()
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: failed checks: {result}")
    return result, time.time() - started


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])

    sets = []
    for set_index in range(args.sets):
        first = args.first_seed + set_index * args.seeds
        runs = {}
        for workload in workloads:
            runs[workload] = []
            for seed in range(first, first + args.seeds):
                result, took = run_once(workload, seed, bench["run_seconds"])
                runs[workload].append(result)
                print(f"set {set_index + 1} {workload} seed {seed}: "
                      f"{took:.1f} s", file=sys.stderr)
        sets.append(runs)

    out_dir = os.path.join(ROOT, ".perfbench", "steadiness")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{int(time.time())}.json"), "w") as f:
        json.dump(sets, f, indent=1)

    problems = []
    print(f"{'workload':14} {'metric':16} {'set':>3} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}  flag")
    for workload in workloads:
        for name, spec in bounds.items():
            medians = []
            for set_index, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs[workload]]
                q1, med, q3, rel = spread(values)
                medians.append(med)
                flag = ""
                if name != "setup_s" and rel > spec["bound"]:
                    flag = "FAIL"
                    problems.append(f"{workload}/{name} spread {rel:.3f}")
                elif rel > spec["bound"] / 3:
                    flag = "WARN"
                print(f"{workload:14} {name:16} {set_index + 1:>3} {med:12.6g} "
                      f"{q1:12.6g} {q3:12.6g} {rel:7.3f} {spec['bound']:6.2f}  "
                      f"{flag}")
            if len(medians) == 2:
                drift = (medians[1] - medians[0]) / medians[0]
                worse = drift if spec["better"] == "lower" else -drift
                flag = "FAIL" if worse > spec["bound"] else ""
                if flag:
                    problems.append(f"{workload}/{name} drift {drift:+.3f}")
                print(f"{workload:14} {name:16} {'d':>3} {drift:+12.4f} "
                      f"{'':12} {'':12} {'':7} {spec['bound']:6.2f}  {flag}")

    print("\nsetup_s per workload (judged on drift, not spread):")
    for workload in workloads:
        values = [[r["metrics"]["setup_s"]["value"] for r in runs[workload]]
                  for runs in sets]
        parts = [f"median {statistics.median(v):.6g} spread "
                 f"{spread(v)[3]:.3f}" for v in values]
        print(f"  {workload}: " + "; ".join(parts))
    print("\n" + ("all metrics within bounds" if not problems
                  else "OUT OF BOUNDS: " + ", ".join(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
